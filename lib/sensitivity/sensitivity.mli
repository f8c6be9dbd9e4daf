(** Local sensitivity analysis (paper §2.2, Equation 1).

    Estimates, for each (input buffer, output buffer) pair of a section,
    the SDC amplification factor K — the local Lipschitz constant of the
    section around its golden input. The estimator follows the paper's
    setup: random perturbations of magnitude up to [max_perturbation],
    randomly hitting a single element, a random subset, or all elements
    of the input buffer (§5.6 "sensitivity analysis parameters"), with
    the Wood-Zhang max-ratio estimate scaled by a conservative
    [safety_factor] (sampling can only underestimate a Lipschitz
    constant; Chisel's contract is a conservative bound).

    Integer buffers are perturbed by ±[max 1 (round max_perturbation)];
    for avalanche-style integer kernels (SHA2) the resulting K is huge,
    which is the correct conservative statement that any upstream SDC may
    corrupt the output arbitrarily. A perturbed run that traps or times
    out yields K = ∞ for that pair. *)

type t = {
  section_index : int;
  input_buffers : int array;   (** readable program-buffer indices *)
  output_buffers : int array;  (** writable program-buffer indices *)
  k : float array array;       (** [k.(o).(i)]: amplification of input
                                   [input_buffers.(i)] into output
                                   [output_buffers.(o)] *)
  samples_used : int;
  work : int;                  (** dynamic instructions simulated *)
}

val estimate :
  ?samples:int ->
  ?max_perturbation:float ->
  ?safety_factor:float ->
  ?pool:Ff_support.Pool.t ->
  ?engine:Ff_vm.Replay.engine ->
  rng:Ff_support.Rng.t ->
  Ff_vm.Golden.t ->
  section_index:int ->
  t
(** Defaults: 200 samples per input buffer, max perturbation 0.01 (the
    paper's ε), safety factor 1.25.

    The sample loop runs in fixed-size chunks, each seeded from [rng]'s
    next output combined with the (input, chunk) index — never from the
    scheduling — so the estimate is identical for every [pool] width
    (including no pool). [rng] advances exactly once per call.

    [engine] (default {!Ff_vm.Replay.default_engine}) picks how each
    sample runs. [Unboxed] resets this domain's replay
    {!Ff_vm.Workspace} by a blit of the section's bound buffers, perturbs
    the input words in place and runs {!Ff_vm.Unboxed}; [Boxed], the
    oracle that [FF_ENGINE=boxed] selects, deep-copies the entry state
    and runs {!Ff_vm.Machine}. Both draw the same random numbers in the
    same order and measure distances bit for bit alike, so the result —
    [k], [work] and {!spec_hash} — never depends on the engine. *)

val perturb_element :
  Ff_support.Rng.t -> float -> Ff_ir.Value.t array -> int -> unit
(** [perturb_element rng max_perturbation buf i] nudges [buf.(i)] in
    place by the estimator's benign model: a float by a signed
    δ ≤ [max_perturbation] (never exactly 0), an int by a nonzero offset
    in ±[max 1 (round max_perturbation)]. *)

val perturb_buffer : Ff_support.Rng.t -> int -> (int -> unit) -> unit
(** [perturb_buffer rng n perturb] applies [perturb] to one element, a
    random subset (repeats possible), or all elements of an [n]-element
    buffer, the three perturbation shapes of §5.6. Detector synthesis
    draws its benign runs with it and {!perturb_element}. *)

val amplification : t -> output:int -> input:int -> float
(** K for a (program-buffer, program-buffer) pair; 0 when the output does
    not depend on the input (or either index is not part of the section). *)

val spec_hash : t -> int64
(** Content hash, stored alongside section results for reuse. *)

val pp : Format.formatter -> t -> unit
