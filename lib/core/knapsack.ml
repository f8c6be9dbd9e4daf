module Site = Ff_inject.Site
module Telemetry = Ff_support.Telemetry

let m_solves = Telemetry.counter "knapsack.solves"
let m_items = Telemetry.counter "knapsack.items"
let m_dp_cells = Telemetry.counter "knapsack.dp_cells"
let m_take_bytes = Telemetry.counter "knapsack.take_bytes"
let h_dp_cells = Telemetry.histogram "knapsack.dp_cells_per_solve"

type item = {
  pc : Site.pc;
  value : int;
  cost : int;
}

type solution = {
  items : item array;
  best : int array;       (** best.(c): max value at cost <= c *)
  take : Bytes.t array;   (** take.(i) bit c: item i improved best.(c) *)
  total_value : int;
}

let bit_get bytes c = Char.code (Bytes.get bytes (c lsr 3)) land (1 lsl (c land 7)) <> 0

let bit_set bytes c =
  let i = c lsr 3 in
  Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lor (1 lsl (c land 7))))

let prepare items =
  List.iter
    (fun item ->
      if item.value > 0 && item.cost < 1 then
        invalid_arg "Knapsack.solve: an item with positive value must cost at least 1")
    items;
  List.filter (fun item -> item.value > 0) items
  |> List.sort (fun a b -> Site.compare_pc a.pc b.pc)
  |> Array.of_list

(* The DP over the cost axis. Before item i, best.(c) is exact for c up
   to the running cost total; every cost past it buys all earlier items,
   so those cells are filled forward with the running value total before
   item i's pass. Item i's take row covers costs up to the new running
   total. *)
let dp items =
  let total_cost = Array.fold_left (fun acc item -> acc + item.cost) 0 items in
  let best = Array.make (total_cost + 1) 0 in
  let bound = ref 0 and running_value = ref 0 and take_bytes = ref 0 in
  let take =
    Array.map
      (fun item ->
        let prev = !bound in
        bound := prev + item.cost;
        Array.fill best (prev + 1) item.cost !running_value;
        running_value := !running_value + item.value;
        let row = Bytes.make ((!bound lsr 3) + 1) '\000' in
        take_bytes := !take_bytes + Bytes.length row;
        (* the hot loop: item.cost >= 1 and bound <= total_cost keep both
           indices inside best *)
        for c = !bound downto item.cost do
          let candidate = Array.unsafe_get best (c - item.cost) + item.value in
          if candidate > Array.unsafe_get best c then begin
            Array.unsafe_set best c candidate;
            bit_set row c
          end
        done;
        row)
      items
  in
  Telemetry.incr m_solves;
  Telemetry.add m_items (Array.length items);
  Telemetry.add m_dp_cells (total_cost + 1);
  Telemetry.add m_take_bytes !take_bytes;
  Telemetry.observe h_dp_cells (total_cost + 1);
  { items; best; take; total_value = !running_value }

let solve items = Telemetry.span "knapsack.solve" @@ fun () -> dp (prepare items)

let max_value s = s.total_value

type selection = {
  pcs : Site.pc list;
  value : int;
  cost : int;
}

(* the cheapest c whose best value reaches the target: best is
   nondecreasing and best.(total cost) = total value >= target *)
let cheapest_cost s ~target =
  let rec go lo hi =
    if lo = hi then lo
    else
      let mid = (lo + hi) / 2 in
      if s.best.(mid) >= target then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length s.best - 1)

(* Walking back from the cheapest c keeps c the cheapest cost of its
   value over the items still ahead, so it never passes their running
   cost total and stays inside each take row. *)
let select s ~target =
  if target <= 0 then { pcs = []; value = 0; cost = 0 }
  else begin
    let c = ref (cheapest_cost s ~target:(min target s.total_value)) in
    let pcs = ref [] and value = ref 0 and cost = ref 0 in
    for i = Array.length s.items - 1 downto 0 do
      if bit_get s.take.(i) !c then begin
        let item = s.items.(i) in
        pcs := item.pc :: !pcs;
        value := !value + item.value;
        cost := !cost + item.cost;
        c := !c - item.cost
      end
    done;
    { pcs = !pcs; value = !value; cost = !cost }
  end

(* The frontier is the set of costs where best strictly increases. Each
   pair is achieved exactly: the cheapest selection reaching best.(c) has
   cost c (a cheaper one would make best increase earlier) and value
   best.(c) (the most that cost buys), which is what lets a caller
   reconstruct a frontier point with [select ~target:value]. *)
let points s =
  let pts = ref [] in
  for c = Array.length s.best - 1 downto 1 do
    if s.best.(c) > s.best.(c - 1) then pts := (s.best.(c), c) :: !pts
  done;
  (0, 0) :: !pts

let items_of_valuation (valuation : Valuation.t) =
  List.map
    (fun (pc, value) -> { pc; value; cost = Valuation.cost_of valuation pc })
    valuation.Valuation.values
