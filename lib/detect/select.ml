module Site = Ff_inject.Site
module Eqclass = Ff_inject.Eqclass
module Valuation = Fastflip.Valuation
module Knapsack = Fastflip.Knapsack
module Pool = Ff_support.Pool
module Telemetry = Ff_support.Telemetry

let m_candidates = Telemetry.counter "detect.select.candidates"
let m_components = Telemetry.counter "detect.select.components"
let m_subsets = Telemetry.counter "detect.select.subsets"
let m_front = Telemetry.counter "detect.select.front_points"

type point = {
  p_value : int;
  p_cost : int;
  p_mask : int;
  p_dup_value : int;
}

type t = {
  t_detectors : Detector.t array;
  t_covered : int array;
  t_classes : (Site.pc * int * int) array;
  t_total_value : int;
  t_items : Knapsack.item list;
  t_pure : Knapsack.solution;
  t_front : point array;
}

let popcount m =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go m 0

(* Residual duplication items for a detector subset: each pc's value
   shrinks by the bad sites the subset already catches there. Never
   negative — a class's sites are a subset of its pc's value mass. *)
let adjusted_items items classes ~mask =
  if mask = 0 then items
  else begin
    let cov = Hashtbl.create 16 in
    Array.iter
      (fun (pc, size, gmask) ->
        if gmask land mask <> 0 then
          Hashtbl.replace cov pc (size + Option.value ~default:0 (Hashtbl.find_opt cov pc)))
      classes;
    List.map
      (fun (it : Knapsack.item) ->
        match Hashtbl.find_opt cov it.Knapsack.pc with
        | None -> it
        | Some c -> { it with Knapsack.value = max 0 (it.Knapsack.value - c) })
      items
  end

let subset_base classes detectors ~mask =
  let base_cost = ref 0 in
  Array.iteri
    (fun i (d : Detector.t) ->
      if mask land (1 lsl i) <> 0 then base_cost := !base_cost + d.Detector.d_cost)
    detectors;
  let base_value = ref 0 in
  Array.iter
    (fun (_, size, gmask) -> if gmask land mask <> 0 then base_value := !base_value + size)
    classes;
  (!base_value, !base_cost)

(* The DP carries one int per cost: value·2^21 − (popcount·2^16 + mask).
   The larger key ranks first — higher value, then fewer detectors, then
   lower mask — and all three terms add up over disjoint components, so
   the winning mask decodes from the key of its cost alone. *)
let key_shift = 21

let decode key =
  let value = (key + (1 lsl key_shift) - 1) asr key_shift in
  (value, ((value lsl key_shift) - key) land 0xFFFF)

(* Connected components of the detector↔pc coverage graph, as detector
   masks: detectors that catch classes at a common pc share one. Each
   component comes with its pcs' items in ascending cost, which keeps the
   bounded item loops short. Components come largest first, so their
   2^k-subset passes run while the cost axis is still short; the pcs no
   candidate touches come last, as component 0 with one pass. *)
let components items n classes =
  let at_pc = Hashtbl.create 64 in
  Array.iter
    (fun (pc, _, gmask) ->
      Hashtbl.replace at_pc pc
        (gmask lor Option.value ~default:0 (Hashtbl.find_opt at_pc pc)))
    classes;
  let masks =
    Hashtbl.fold
      (fun _ m comps ->
        let touching, apart = List.partition (fun c -> c land m <> 0) comps in
        List.fold_left ( lor ) 0 touching :: apart)
      at_pc
      (List.init n (fun i -> 1 lsl i))
    |> List.sort (fun a b -> compare (popcount b, a) (popcount a, b))
  in
  let items_of c =
    List.filter
      (fun (it : Knapsack.item) ->
        let m = Option.value ~default:0 (Hashtbl.find_opt at_pc it.Knapsack.pc) in
        it.Knapsack.value > 0 && if c = 0 then m = 0 else m land c <> 0)
      items
    |> List.stable_sort (fun (a : Knapsack.item) b -> compare a.Knapsack.cost b.Knapsack.cost)
  in
  List.map (fun c -> (c, items_of c)) (masks @ [ 0 ])

let submasks c =
  let rec go s acc = if s = 0 then 0 :: acc else go ((s - 1) land c) (s :: acc) in
  Array.of_list (go c [])

(* One subset's pass over the cost axis: [prev] (exact up to [bound])
   shifted by the subset's cost and key, then the 0-1 item loop over its
   component's pcs at their residual values, each bounded by the running
   cost total as in {!Knapsack}. Cells past the running total hold its
   value; cells below the subset's cost stay [min_int] and are never
   read by the item loop. *)
let subset_pass detectors classes items ~prev ~bound ~dst mask =
  let value, cost = subset_base classes detectors ~mask in
  let key = (value lsl key_shift) - ((popcount mask lsl 16) + mask) in
  Array.fill dst 0 cost min_int;
  for c = 0 to bound do
    Array.unsafe_set dst (cost + c) (Array.unsafe_get prev c + key)
  done;
  let running = ref (cost + bound) in
  List.iter
    (fun (it : Knapsack.item) ->
      if it.Knapsack.value > 0 then begin
        let w = it.Knapsack.cost and gain = it.Knapsack.value lsl key_shift in
        Array.fill dst (!running + 1) w dst.(!running);
        running := !running + w;
        for c = !running downto cost + w do
          let candidate = Array.unsafe_get dst (c - w) + gain in
          if candidate > Array.unsafe_get dst c then Array.unsafe_set dst c candidate
        done
      end)
    (adjusted_items items classes ~mask);
  Array.fill dst (!running + 1) (Array.length dst - 1 - !running) dst.(!running)

let max_into acc src =
  for c = 0 to Array.length src - 1 do
    let v = Array.unsafe_get src c in
    if v > Array.unsafe_get acc c then Array.unsafe_set acc c v
  done

(* One component: the pointwise max over its subset passes, split into
   one contiguous run of subsets per pool domain. The max is order-free,
   so the result does not depend on the width. *)
let component_pass pool detectors classes (c, items) ~prev ~bound =
  let next =
    bound
    + snd (subset_base classes detectors ~mask:c)
    + List.fold_left (fun acc (it : Knapsack.item) -> acc + it.Knapsack.cost) 0 items
  in
  let subsets = submasks c in
  let n = Array.length subsets in
  let runs = min n (Pool.domains pool) in
  let run r =
    let acc = Array.make (next + 1) 0 and dst = Array.make (next + 1) 0 in
    let lo = r * n / runs and hi = (r + 1) * n / runs in
    subset_pass detectors classes items ~prev ~bound ~dst:acc subsets.(lo);
    for i = lo + 1 to hi - 1 do
      subset_pass detectors classes items ~prev ~bound ~dst subsets.(i);
      max_into acc dst
    done;
    acc
  in
  let parts = Pool.map_array ~chunk:1 pool run (Array.init runs Fun.id) in
  for r = 1 to runs - 1 do
    max_into parts.(0) parts.(r)
  done;
  (parts.(0), next, n)

let of_classes ?(pool = Pool.serial) items detectors classes =
  let n = Array.length detectors in
  if n > 16 then invalid_arg "Select.of_classes: at most 16 candidate detectors";
  let total_value =
    List.fold_left (fun acc (it : Knapsack.item) -> acc + it.Knapsack.value) 0 items
  in
  let class_value = Array.fold_left (fun acc (_, size, _) -> acc + size) 0 classes in
  if total_value + class_value > max_int asr (key_shift + 1) then
    invalid_arg "Select.of_classes: values too large for the tie-break key";
  let pure = Knapsack.solve items in
  let components = components items n classes in
  let best, bound, subsets =
    List.fold_left
      (fun (prev, bound, subsets) component ->
        let next, bound, k = component_pass pool detectors classes component ~prev ~bound in
        (next, bound, subsets + k))
      ([| 0 |], 0, 0) components
  in
  (* a front point wherever the best value strictly rises along the cost
     axis; its mask's own covered value splits off the residual target *)
  let base = Hashtbl.create 16 in
  let base_value mask =
    match Hashtbl.find_opt base mask with
    | Some v -> v
    | None ->
      let v = fst (subset_base classes detectors ~mask) in
      Hashtbl.replace base mask v;
      v
  in
  let front = ref [] and last = ref (-1) in
  for c = 0 to bound do
    let value, mask = decode best.(c) in
    if value > !last then begin
      last := value;
      front :=
        { p_value = value; p_cost = c; p_mask = mask; p_dup_value = value - base_value mask }
        :: !front
    end
  done;
  let front = Array.of_list (List.rev !front) in
  Telemetry.add m_candidates n;
  Telemetry.add m_components (List.length components - 1);
  Telemetry.add m_subsets subsets;
  Telemetry.add m_front (Array.length front);
  {
    t_detectors = detectors;
    t_covered = Array.init n (fun i -> base_value (1 lsl i));
    t_classes = classes;
    t_total_value = total_value;
    t_items = items;
    t_pure = pure;
    t_front = front;
  }

let build ?pool ?(max_detectors = 8) (valuation : Valuation.t) coverages =
  Telemetry.span "detect.select" @@ fun () ->
  if max_detectors < 0 || max_detectors > 16 then
    invalid_arg "Select.build: max_detectors must be in [0, 16]";
  (* rank (covered desc, section asc, local index asc), cap the pool *)
  let ranked =
    List.sort
      (fun (cov_a, sec_a, j_a, _) (cov_b, sec_b, j_b, _) ->
        if cov_a <> cov_b then compare cov_b cov_a
        else if sec_a <> sec_b then compare sec_a sec_b
        else compare j_a j_b)
      (List.concat_map
         (fun (c : Coverage.t) ->
           List.filteri
             (fun _ (cov, _, _, _) -> cov > 0)
             (Array.to_list
                (Array.mapi
                   (fun j d -> (c.Coverage.c_covered.(j), c.Coverage.c_section, j, d))
                   c.Coverage.c_detectors)))
         coverages)
  in
  let chosen =
    Array.of_list
      (List.filteri (fun i _ -> i < max_detectors) ranked)
  in
  (* remap each caught class's local fired mask onto the global pool *)
  let classes =
    Array.of_list
      (List.concat_map
         (fun (c : Coverage.t) ->
           List.filter_map
             (fun ((cls : Eqclass.t), local_mask) ->
               let gmask = ref 0 in
               Array.iteri
                 (fun g (_, sec, j, _) ->
                   if sec = c.Coverage.c_section && local_mask land (1 lsl j) <> 0
                   then gmask := !gmask lor (1 lsl g))
                 chosen;
               if !gmask = 0 then None
               else Some (cls.Eqclass.pc, Eqclass.size cls, !gmask))
             (Array.to_list c.Coverage.c_classes))
         coverages)
  in
  of_classes ?pool (Knapsack.items_of_valuation valuation)
    (Array.map (fun (_, _, _, d) -> d) chosen)
    classes

type selection = {
  sel_detectors : Detector.t array;
  sel_mask : int;
  sel_dup : Knapsack.selection;
  sel_value : int;
  sel_cost : int;
}

let selection_at t ~target =
  let target = min target t.t_total_value in
  let target = max target 0 in
  let point =
    let n = Array.length t.t_front in
    let rec go i =
      if i >= n then t.t_front.(n - 1)  (* front always reaches total value *)
      else if t.t_front.(i).p_value >= target then t.t_front.(i)
      else go (i + 1)
    in
    go 0
  in
  let base_value, base_cost =
    subset_base t.t_classes t.t_detectors ~mask:point.p_mask
  in
  let solution =
    if point.p_mask = 0 then t.t_pure
    else Knapsack.solve (adjusted_items t.t_items t.t_classes ~mask:point.p_mask)
  in
  let dup = Knapsack.select solution ~target:point.p_dup_value in
  let detectors =
    Array.of_list
      (List.filteri
         (fun i _ -> point.p_mask land (1 lsl i) <> 0)
         (Array.to_list t.t_detectors))
  in
  {
    sel_detectors = detectors;
    sel_mask = point.p_mask;
    sel_dup = dup;
    sel_value = base_value + dup.Knapsack.value;
    sel_cost = base_cost + dup.Knapsack.cost;
  }

let pure_points t = Knapsack.points t.t_pure
