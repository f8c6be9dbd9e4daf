(** Rendering of the [fastflip analyze] report.

    Factored out of the CLI so the one-shot command and the serve daemon
    share one implementation: a daemon response is byte-identical to the
    one-shot CLI's stdout {e by construction}, and the server smoke test
    holds both to that with a literal [diff].

    The report splits at the knapsack line into a target-independent
    {!body} and a per-target {!selection} tail. The daemon renders the
    body once per cached analysis and only the tail per request; the
    one-shot CLI prints {!analysis}, which is their concatenation. *)

val body : Fastflip.Pipeline.analysis -> string
(** Everything before the knapsack line: reuse/work counters, the
    end-to-end SDC specification and the per-instruction value/cost
    table. Independent of the target. *)

val selection : target:float -> Fastflip.Pipeline.analysis -> string
(** The knapsack line for [target] and the list of selected pcs. *)

val analysis : target:float -> Fastflip.Pipeline.analysis -> string
(** Exactly what [fastflip analyze] prints for this analysis and knapsack
    target: [body a ^ selection ~target a]. *)
