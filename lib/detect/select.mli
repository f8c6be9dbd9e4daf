(** Mixed duplication-vs-detector protection selection.

    Generalizes the paper's §4.6 knapsack: each pc may be protected by
    full instruction duplication (exact coverage of all its SDC-Bad
    sites, §5.3 per-dynamic-instance cost) {e or} left to a shared
    runtime detector (injection-measured coverage of the specific bad
    classes it fires on, amortized per-program-run check cost) — or
    both, with the duplication value credited only for sites the
    detectors miss.

    The front is the one over every subset [D] of a small global
    candidate pool (the top-covering detectors, default ≤ 8): for a
    fixed [D] the best duplication set is a 0-1 knapsack over residual
    values [v(pc) − cov_D(pc)]. A pc's residual depends only on the
    detectors that catch one of its classes, so the pool splits into the
    connected components of the detector↔pc coverage graph, and the
    optimizer composes them: one DP over the cost axis starts from
    nothing, and each component replaces it by the pointwise max, over
    its own 2^k subsets, of the array shifted by the subset's detector
    cost and covered value and then run through that component's pcs at
    their residual values; the pcs no candidate touches come last, as a
    component with no detectors. That is Σ 2^k short item loops instead
    of 2^n knapsacks over every pc, and the front is the same.

    Each cell carries [value·2^21 − (popcount·2^16 + mask)]: the larger
    key wins, i.e. higher value, then fewer detectors, then lower mask,
    and all three terms add up over disjoint components. Each front
    point's mask, and from it its residual target, decodes from its key
    alone. The empty subset reproduces pure duplication, so with
    detectors disabled the mixed answer degenerates to the paper's
    knapsack exactly. A component's subsets fan out over a pool; the
    max is order-free, so the result is the same at any pool width.
    Only the subset a selection lands on is re-solved with take bits. *)

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
    (default 8, hard limit 16: a component of k candidates costs 2^k
    passes, and the tie-break key holds a 16-bit mask). Each component's
    subsets run on [pool] (default {!Ff_support.Pool.serial}). *)

val of_classes :
  ?pool:Ff_support.Pool.t ->
  Fastflip.Knapsack.item list ->
  Detector.t array ->
  (Ff_inject.Site.pc * int * int) array ->
  t
(** The selection over an explicit candidate pool, the pure core
    {!build} calls after ranking and capping: duplication [items], the
    pool's detectors, and [(pc, class size, detector mask)] per caught
    class, bit [i] of a mask naming [detectors.(i)]. [t_covered] and
    [t_total_value] are derived from the classes and items. Raises
    [Invalid_argument] for more than 16 detectors, or for values whose
    sum overflows the tie-break key. *)

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
