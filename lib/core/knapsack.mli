(** 0-1 knapsack selection of instructions to protect (paper §4.6).

    Minimize total protection cost subject to total protection value ≥ a
    target, by dynamic programming over the (integer) cost dimension:
    [best.(c)] is the largest value any selection of cost ≤ c reaches.
    Total cost is an order of magnitude smaller than total value on
    every benchmark, so this axis keeps the table and its per-item take
    bits small. One {!solve} supports extraction at every target —
    FastFlip sweeps a range of targets (the ε-constraint method) and the
    adaptive target adjustment probes many candidates, all against the
    same DP table. *)

type item = {
  pc : Ff_inject.Site.pc;
  value : int;  (** SDC-Bad site count at this pc; items with 0 value are
                    never selected *)
  cost : int;   (** dynamic instances of this pc; at least 1 when
                    [value > 0] *)
}

type solution

val solve : item list -> solution
(** Build the DP table. O(Σcost × #items) time, O(Σcost × #items / 8)
    bytes of take bits. Raises [Invalid_argument] on an item with
    [value > 0] and [cost < 1]: a free item would have no strict
    frontier point of its own. *)

val max_value : solution -> int
(** Σ of all item values: the largest reachable target. *)

type selection = {
  pcs : Ff_inject.Site.pc list;  (** chosen instructions, deterministic order *)
  value : int;                   (** Σ value over the selection *)
  cost : int;                    (** Σ cost over the selection *)
}

val select : solution -> target:int -> selection
(** Selection with [value ≥ min target (max_value)]: cheapest; among
    equally cheap, maximum value. A non-positive target yields the
    empty selection. O(log Σcost + #items) per call. *)

val points : solution -> (int * int) list
(** The achievable (value, min-cost) frontier of the DP, ascending and
    strictly increasing in both coordinates, starting at [(0, 0)]. Each
    pair is achieved exactly — [select ~target:value] reconstructs the
    selection behind it at the stated cost. The pure-duplication
    baseline the mixed duplication-vs-detector front is compared
    against. *)

val items_of_valuation : Valuation.t -> item list
(** One item per pc that has any SDC-Bad value. *)
