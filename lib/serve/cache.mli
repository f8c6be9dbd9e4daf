(** The daemon's warm-state cache: completed analyses keyed by
    [(program source, full config)] digest.

    An {!entry} holds the analysis and its rendered report [body].
    The cached {!Fastflip.Pipeline.analysis} transitively pins everything
    expensive to rebuild: the golden run with its pre-decoded kernels
    (and hence the {!Ff_vm.Workspace} plans and prover recordings cached
    off the decoded form), the per-section campaign and sensitivity
    records, the Chisel propagation, and the solved knapsack. The body is
    the target-independent part of the report ([Report.body]), rendered
    once when the entry is computed. A warm hit therefore answers a
    repeat query with {e zero} compiles, decodes, replays, store lookups
    or table renders — only a knapsack selection at the requested target
    and the short report tail for it.

    The body lives and is evicted with its entry, never on its own: its
    "sections reused" line records the store's state at the moment the
    entry was computed, so it is only valid next to that analysis.

    Concurrent identical requests {e coalesce}: the first computes, the
    rest block on a condition variable and wake to the finished entry.
    This is what makes daemon responses byte-identical at any client
    count — two racing cold analyses of the same program would otherwise
    disagree on the "sections reused" accounting (the second would hit
    the store records the first just published).

    Thread-safe; the compute callback runs {e outside} the cache lock, so
    distinct keys never serialize behind each other here. *)

type entry = {
  analysis : Fastflip.Pipeline.analysis;
  body : string;  (** [Report.body analysis], rendered by [compute] *)
}

type t

val create : ?capacity:int -> unit -> t
(** LRU-bounded cache ([capacity] completed entries, default 32; 0 keeps
    nothing warm, which degrades every request to admission-controlled
    store access — useful in tests). In-flight computations are never
    evicted. Raises [Invalid_argument] on a negative capacity. *)

type outcome =
  | Hit        (** served from a completed warm entry *)
  | Coalesced  (** waited on another request's in-flight computation *)
  | Miss       (** this request ran the computation *)

val find_or_compute :
  t ->
  key:int64 ->
  compute:(unit -> entry) ->
  (entry, exn) result * outcome
(** [compute] runs without the cache lock. A raising [compute] is not
    cached: its exception is returned to the caller that ran it, and
    every waiter coalesced on it (and the next request with the same
    key) retries the computation itself. *)

val size : t -> int
(** Completed entries currently held. *)
