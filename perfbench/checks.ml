(* Output checks. They run after the timed phase (and outside set-up), and
   every failure lands in [Common.failures]. *)

open Common
module Select = Ff_detect.Select
module Protect = Ff_detect.Protect
module Synthesize = Ff_detect.Synthesize

(* A knapsack selection re-checked against its valuation without going
   through [Knapsack]: the pcs are distinct, their summed v(pc) reaches
   ceil(target * total), and their summed value and c(pc) are the ones
   the selection reports. *)
let selection ~what (valuation : Valuation.t) ~target (sel : Knapsack.selection) =
  let values = Hashtbl.create 64 and costs = Hashtbl.create 64 in
  List.iter (fun (pc, v) -> Hashtbl.replace values pc v) valuation.Valuation.values;
  List.iter (fun (pc, c) -> Hashtbl.replace costs pc c) valuation.Valuation.costs;
  let sum tbl =
    List.fold_left
      (fun acc pc -> acc + Option.value ~default:0 (Hashtbl.find_opt tbl pc))
      0 sel.Knapsack.pcs
  in
  let v = sum values and c = sum costs in
  let total = valuation.Valuation.total_value in
  let need = min total (int_of_float (ceil (target *. float_of_int total))) in
  let pcs = sel.Knapsack.pcs in
  check
    (List.length (List.sort_uniq compare pcs) = List.length pcs)
    "%s: selection repeats a pc" what;
  check (v >= need) "%s: selected value %d below the target %d of %d" what v need total;
  check (v = sel.Knapsack.value) "%s: selection reports value %d, its pcs sum to %d" what
    sel.Knapsack.value v;
  check (c = sel.Knapsack.cost) "%s: selection reports cost %d, its pcs sum to %d" what
    sel.Knapsack.cost c

(* The report without its reuse and work lines, which legitimately differ
   between an incremental and a from-scratch analysis. *)
let without_reuse_lines report =
  String.split_on_char '\n' report
  |> List.filter (fun l ->
         not
           (String.starts_with ~prefix:"sections reused from the store:" l
           || String.starts_with ~prefix:"injection + sensitivity work:" l))
  |> String.concat "\n"

let same_outputs ~what ((va, sa) : Valuation.t * Knapsack.selection) (vb, sb) =
  check (compare va vb = 0) "%s: valuations differ" what;
  check (compare sa sb = 0) "%s: selections differ" what

(* A Pareto front starts at (0, 0) and strictly increases in both value
   and cost. *)
let front ~what points =
  let rec go = function
    | (v1, c1) :: ((v2, c2) :: _ as rest) ->
      check (v2 > v1 && c2 > c1)
        "%s: front not strictly increasing at (%d, %d) -> (%d, %d)" what v1 c1 v2 c2;
      go rest
    | _ -> ()
  in
  check (List.nth_opt points 0 = Some (0, 0)) "%s: front does not start at (0, 0)" what;
  go points

let protect ~what (r : Protect.t) (valuation : Valuation.t) =
  (match r.Protect.r_synth with
  | Some s ->
    check (s.Synthesize.fp_fires = 0) "%s: %d benign detector fires" what
      s.Synthesize.fp_fires
  | None -> check false "%s: detectors were not synthesized" what);
  let select = r.Protect.r_select in
  let total = select.Select.t_total_value in
  let need = min total (int_of_float (ceil (r.Protect.r_target *. float_of_int total))) in
  selection ~what:(what ^ " pure duplication") valuation ~target:r.Protect.r_target
    r.Protect.r_pure;
  let mixed = r.Protect.r_mixed and pure_cost = r.Protect.r_pure.Knapsack.cost in
  check (mixed.Select.sel_value >= need) "%s: mixed plan value %d below the target %d"
    what mixed.Select.sel_value need;
  check (mixed.Select.sel_cost <= pure_cost)
    "%s: mixed plan costs %d, more than pure duplication's %d" what mixed.Select.sel_cost
    pure_cost;
  front ~what:(what ^ " pure front") (Select.pure_points select);
  front ~what:(what ^ " mixed front")
    (Array.to_list
       (Array.map (fun p -> (p.Select.p_value, p.Select.p_cost)) select.Select.t_front))
