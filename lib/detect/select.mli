(** Mixed duplication-vs-detector protection selection.

    Generalizes the paper's §4.6 knapsack: each pc may be protected by
    full instruction duplication (exact coverage of all its SDC-Bad
    sites, §5.3 per-dynamic-instance cost) {e or} left to a shared
    runtime detector (injection-measured coverage of the specific bad
    classes it fires on, amortized per-program-run check cost) — or
    both, with the duplication value credited only for sites the
    detectors miss.

    The optimizer decomposes over detector subsets [D] of a small global
    candidate pool (the top-covering detectors, default ≤ 8, so ≤ 256
    subsets): for a fixed [D] the best duplication set is an ordinary
    0-1 knapsack over residual values [v(pc) − cov_D(pc)], and every
    (value, cost) frontier point of every subset competes in one global
    Pareto filter. The empty subset's frontier {e is} the pure-
    duplication frontier, so with detectors disabled the mixed answer
    degenerates to the paper's knapsack exactly. Each subset needs only
    its points ({!Fastflip.Knapsack.frontier}, no take table); the
    subsets fan out over a pool and are merged in mask order, and only
    the subset a selection lands on is re-solved with take bits. Fully
    deterministic: no randomness, and the same result at any pool
    width. *)

type point = {
  p_value : int;  (** protected SDC-Bad sites (detector-covered + duplicated) *)
  p_cost : int;   (** detector check cost + duplication cost *)
  p_mask : int;   (** detector subset (bit i = [t_detectors.(i)]) *)
  p_dup_value : int;  (** residual knapsack target that reconstructs it *)
}

type t = {
  t_detectors : Detector.t array;  (** global candidate pool, coverage order *)
  t_covered : int array;  (** sites each global detector covers alone *)
  t_classes : (Ff_inject.Site.pc * int * int) array;
      (** (pc, class size, global detector mask) per detector-caught class *)
  t_total_value : int;    (** the valuation's Σ v(pc) *)
  t_items : Fastflip.Knapsack.item list;  (** pure duplication items *)
  t_pure : Fastflip.Knapsack.solution;  (** the D = ∅ knapsack *)
  t_front : point array;
      (** global Pareto front: cost ascending, value strictly increasing,
          starting at (0, 0) *)
}

val build :
  ?pool:Ff_support.Pool.t ->
  ?max_detectors:int ->
  Fastflip.Valuation.t ->
  Coverage.t list ->
  t
(** [build valuation coverages] with the per-section coverage
    measurements (any order; sections without measurements simply
    contribute no detectors). Candidates are ranked by sites covered
    (ties: section, then local index) and capped at [max_detectors]
    (default 8, hard limit 16 — subset enumeration is 2^n). The subset
    frontiers run on [pool] (default {!Ff_support.Pool.serial}). *)

type selection = {
  sel_detectors : Detector.t array;
  sel_mask : int;
  sel_dup : Fastflip.Knapsack.selection;  (** pcs to duplicate *)
  sel_value : int;
  sel_cost : int;
}

val selection_at : t -> target:int -> selection
(** Cheapest mixed selection with value ≥ [min target t_total_value]:
    the first frontier point at or above the target, reconstructed
    exactly (its residual knapsack re-solved and extracted at
    [p_dup_value]). *)

val pure_points : t -> (int * int) list
(** The pure-duplication frontier ({!Fastflip.Knapsack.points} of the
    D = ∅ solution) — the baseline the mixed front is compared against. *)
