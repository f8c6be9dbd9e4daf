(* Detector-synthesis subsystem tests.

   The contracts under test: synthesized detectors never fire on the
   golden run or on ε-benign perturbed runs (the zero-false-positive
   guarantee duplication-vs-detector tradeoffs rest on), coverage
   measurement is bit-identical at every pool width and caches losslessly
   through the store, the mixed Pareto front is a strictly-increasing
   frontier that dominates the pure-duplication frontier, and with
   detectors disabled the mixed optimizer degenerates to the paper's
   knapsack exactly. *)

module Site = Ff_inject.Site
module Campaign = Ff_inject.Campaign
module Golden = Ff_vm.Golden
module Machine = Ff_vm.Machine
module Value = Ff_ir.Value
module Frontend = Ff_lang.Frontend
module Pool = Ff_support.Pool
module Pipeline = Fastflip.Pipeline
module Valuation = Fastflip.Valuation
module Knapsack = Fastflip.Knapsack
module Store = Fastflip.Store
module Detector = Ff_detect.Detector
module Synthesize = Ff_detect.Synthesize
module Coverage = Ff_detect.Coverage
module Select = Ff_detect.Select
module Protect = Ff_detect.Protect

let compile src =
  match Frontend.compile src with
  | Ok p -> p
  | Error e ->
    Alcotest.failf "compile: %s" (Format.asprintf "%a" Frontend.pp_error e)

let program_src =
  {|buffer a : float[4] = { 1.5, -0.25, 2.0, 0.75 };
buffer mid : float[4] = zeros;
output buffer res : float[4] = zeros;
kernel scale(in a: float[], out mid: float[]) {
  for i in 0..4 {
    var w: float = 1.0;
    if (a[i] > 0.0) { w = 2.0; }
    mid[i] = a[i] * w + 0.5;
  }
}
kernel fold(in mid: float[], out res: float[]) {
  for i in 0..4 { res[i] = mid[i] * 0.75 - 0.5; }
}
schedule {
  call scale(a, mid);
  call fold(mid, res);
}|}

let config =
  {
    Pipeline.default_config with
    Pipeline.campaign =
      { Campaign.default_config with Campaign.bits = Site.Bit_list [ 1; 31; 62 ] };
    sensitivity_samples = 40;
  }

let analysis = lazy (Pipeline.analyze config (compile program_src))

let protect ?(pool = Pool.serial) ?(enabled = true) ?backing () =
  Protect.run ~pool ?backing ~detectors_enabled:enabled config
    (Lazy.force analysis) ~target:0.9

(* --- determinism at any pool width ------------------------------------- *)

let test_pool_width_identity () =
  let serial = protect () in
  let wide =
    Pool.with_pool ~domains:4 (fun pool -> protect ~pool ())
  in
  Alcotest.(check string) "report identical" (Protect.report serial)
    (Protect.report wide);
  Alcotest.(check string) "pareto JSON identical" (Protect.pareto_json serial)
    (Protect.pareto_json wide)

let protected = lazy (protect ())

let prop_select_pool_width =
  QCheck2.Test.make ~count:20 ~name:"Select.build identical at pool widths 1 and 4"
    QCheck2.Gen.(pair (int_range 0 8) (list_size (int_range 1 8) (int_bound 1000)))
    (fun (max_detectors, permille) ->
      let valuation = (Lazy.force analysis).Pipeline.valuation in
      let coverages = (Lazy.force protected).Protect.r_coverages in
      let build pool = Select.build ~pool ~max_detectors valuation coverages in
      let serial = build Pool.serial in
      let wide = Pool.with_pool ~domains:4 build in
      let total = serial.Select.t_total_value in
      let at s t = Select.selection_at s ~target:(t * total / 1000) in
      serial.Select.t_front = wide.Select.t_front
      && List.for_all (fun t -> at serial t = at wide t) permille)

(* --- zero false positives ---------------------------------------------- *)

let detectors_of (p : Protect.t) =
  match p.Protect.r_synth with
  | None -> Alcotest.fail "expected synthesis"
  | Some s -> s.Synthesize.candidates

let specs_of () =
  Array.map
    (fun (r : Store.section_record) -> r.Store.rec_sensitivity)
    (Lazy.force analysis).Pipeline.sections

(* Run one section from a perturbed entry and evaluate every candidate
   against the post-exec state — an ε-benign run generated outside the
   synthesizer, so this checks the margins, not the training loop. *)
let benign_fires golden specs candidates ~section_index ~delta =
  let section = golden.Golden.sections.(section_index) in
  let state = Array.map Array.copy section.Golden.entry_state in
  Array.iter
    (fun i ->
      Array.iteri
        (fun e v ->
          match v with
          | Value.Float x -> state.(i).(e) <- Value.Float (x +. delta)
          | Value.Int _ -> ())
        state.(i))
    specs.(section_index).Ff_sensitivity.Sensitivity.input_buffers;
  let entry_sums = Array.map Detector.sum state in
  let buffers = Array.map (fun (idx, _) -> state.(idx)) section.Golden.bindings in
  let budget = max 16 (5 * section.Golden.dyn_count) in
  let run =
    Machine.exec section.Golden.kernel ~scalars:section.Golden.scalars ~buffers
      ~budget ()
  in
  Alcotest.(check bool) "benign run finishes" true (run.Machine.status = Machine.Finished);
  Array.to_list candidates.(section_index)
  |> List.filter (fun (d : Detector.t) ->
         let entry_sum =
           match d.Detector.d_form with
           | Detector.Linear { input; _ } -> entry_sums.(input)
           | _ -> 0.0
         in
         Detector.fires d ~entry_sum state.(d.Detector.d_buffer))

let test_zero_false_positives () =
  let p = protect () in
  let candidates = detectors_of p in
  let golden = (Lazy.force analysis).Pipeline.golden in
  let specs = specs_of () in
  let n =
    Array.fold_left (fun acc a -> acc + Array.length a) 0 candidates
  in
  Alcotest.(check bool) "some detectors synthesized" true (n > 0);
  Array.iteri
    (fun si section ->
      (* golden exit: no detector may fire on the reference run *)
      let exit_state = Golden.exit_state golden si in
      Array.iter
        (fun (d : Detector.t) ->
          let entry_sum =
            match d.Detector.d_form with
            | Detector.Linear { input; _ } ->
              Detector.sum section.Golden.entry_state.(input)
            | _ -> 0.0
          in
          Alcotest.(check bool)
            (Printf.sprintf "golden: %s" (Detector.describe d))
            false
            (Detector.fires d ~entry_sum exit_state.(d.Detector.d_buffer)))
        candidates.(si);
      (* fresh ε-benign runs at the synthesis perturbation magnitude *)
      List.iter
        (fun delta ->
          match benign_fires golden specs candidates ~section_index:si ~delta with
          | [] -> ()
          | d :: _ ->
            Alcotest.failf "benign fire (delta %g): %s" delta (Detector.describe d))
        [ 0.01; -0.01; 0.005; -0.0025 ])
    golden.Golden.sections

(* --- Pareto front invariants -------------------------------------------- *)

let prop_front_monotone =
  let select = lazy (protect ()).Protect.r_select in
  QCheck2.Test.make ~count:200 ~name:"front is strict, dominant, and monotone"
    QCheck2.Gen.(pair (int_bound 200) (int_bound 200))
    (fun (a, b) ->
      let s = Lazy.force select in
      let front = s.Select.t_front in
      (* strictly increasing in both coordinates *)
      Array.iteri
        (fun i p ->
          if i > 0 then begin
            assert (p.Select.p_value > front.(i - 1).Select.p_value);
            assert (p.Select.p_cost > front.(i - 1).Select.p_cost)
          end)
        front;
      assert (front.(0).Select.p_value = 0 && front.(0).Select.p_cost = 0);
      (* dominates the pure-duplication frontier *)
      List.iter
        (fun (v, c) ->
          let cheapest =
            Array.fold_left
              (fun acc p ->
                if p.Select.p_value >= v then min acc p.Select.p_cost else acc)
              max_int front
          in
          assert (cheapest <= c))
        (Select.pure_points s);
      (* selection_at reconstructs its frontier point exactly, and cost
         is monotone in the target *)
      let total = s.Select.t_total_value in
      let t1 = a * total / 200 and t2 = b * total / 200 in
      let lo = min t1 t2 and hi = max t1 t2 in
      let sel_lo = Select.selection_at s ~target:lo in
      let sel_hi = Select.selection_at s ~target:hi in
      assert (sel_lo.Select.sel_value >= lo);
      assert (sel_hi.Select.sel_value >= hi);
      assert (sel_lo.Select.sel_cost <= sel_hi.Select.sel_cost);
      assert (
        Array.exists
          (fun p ->
            p.Select.p_value = sel_hi.Select.sel_value
            && p.Select.p_cost = sel_hi.Select.sel_cost)
          front);
      true)

let prop_knapsack_points_exact =
  let gen_items =
    QCheck2.Gen.(
      list_size (int_range 1 8)
        (pair (int_bound 12) (int_range 1 30)))
  in
  QCheck2.Test.make ~count:200 ~name:"knapsack frontier points are achieved exactly"
    gen_items (fun raw ->
      let items =
        List.mapi
          (fun i (value, cost) ->
            { Knapsack.pc = { Site.kernel = 0; instr = i }; value; cost })
          raw
      in
      let s = Knapsack.solve items in
      let pts = Knapsack.points s in
      let rec strict = function
        | (v1, c1) :: ((v2, c2) :: _ as rest) ->
          v1 < v2 && c1 < c2 && strict rest
        | _ -> true
      in
      assert (strict pts);
      assert (List.hd pts = (0, 0));
      List.iter
        (fun (v, c) ->
          let sel = Knapsack.select s ~target:v in
          assert (sel.Knapsack.value = v);
          assert (sel.Knapsack.cost = c))
        pts;
      true)

(* --- exact against the 2^n subset enumeration ---------------------------- *)

(* The reference selection: one residual knapsack per detector subset,
   its frontier shifted by the subset's own cost and covered value, and
   one merge over cost that keeps, at each cost, the first candidate in
   the order (higher value, fewer detectors, lower mask, smaller residual
   target), then sweeps out the strictly improving points. *)
let popcount m =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go m 0

let reference_residual items classes ~mask =
  List.map
    (fun (it : Knapsack.item) ->
      let caught =
        Array.fold_left
          (fun acc (pc, size, gmask) ->
            if pc = it.Knapsack.pc && gmask land mask <> 0 then acc + size else acc)
          0 classes
      in
      { it with Knapsack.value = max 0 (it.Knapsack.value - caught) })
    items

let reference_base (detectors : Detector.t array) classes ~mask =
  let value =
    Array.fold_left
      (fun acc (_, size, gmask) -> if gmask land mask <> 0 then acc + size else acc)
      0 classes
  in
  let cost = ref 0 in
  Array.iteri
    (fun i (d : Detector.t) ->
      if mask land (1 lsl i) <> 0 then cost := !cost + d.Detector.d_cost)
    detectors;
  (value, !cost)

let reference_front items detectors classes =
  let rank (p : Select.point) =
    (-p.Select.p_value, popcount p.Select.p_mask, p.Select.p_mask, p.Select.p_dup_value)
  in
  let at_cost = Hashtbl.create 64 in
  for mask = 0 to (1 lsl Array.length detectors) - 1 do
    let base_value, base_cost = reference_base detectors classes ~mask in
    List.iter
      (fun (v, c) ->
        let p =
          {
            Select.p_value = base_value + v;
            p_cost = base_cost + c;
            p_mask = mask;
            p_dup_value = v;
          }
        in
        match Hashtbl.find_opt at_cost p.Select.p_cost with
        | Some q when compare (rank q) (rank p) <= 0 -> ()
        | _ -> Hashtbl.replace at_cost p.Select.p_cost p)
      (Knapsack.points (Knapsack.solve (reference_residual items classes ~mask)))
  done;
  let best = ref (-1) in
  Hashtbl.fold (fun _ p acc -> p :: acc) at_cost []
  |> List.sort (fun a b -> compare a.Select.p_cost b.Select.p_cost)
  |> List.filter (fun p ->
         p.Select.p_value > !best
         && begin
           best := p.Select.p_value;
           true
         end)
  |> Array.of_list

let reference_selection items detectors classes front ~target =
  let total =
    List.fold_left (fun acc (it : Knapsack.item) -> acc + it.Knapsack.value) 0 items
  in
  let target = max 0 (min target total) in
  let p =
    match List.find_opt (fun p -> p.Select.p_value >= target) (Array.to_list front) with
    | Some p -> p
    | None -> front.(Array.length front - 1)
  in
  let mask = p.Select.p_mask in
  let dup =
    Knapsack.select
      (Knapsack.solve (reference_residual items classes ~mask))
      ~target:p.Select.p_dup_value
  in
  let base_value, base_cost = reference_base detectors classes ~mask in
  (mask, dup, base_value + dup.Knapsack.value, base_cost + dup.Knapsack.cost)

(* A synthetic selection instance from a seed: up to 10 detectors,
   classes whose masks span one to three detectors, and costs and sizes
   drawn from small ranges so equal costs and equal covered sizes — the
   popcount and mask tie-breaks — are common. [groups] = 1 draws every
   class mask from all detectors (one coverage component, mostly);
   larger values confine each pc's classes to one block of detectors. *)
let synthetic_instance seed =
  let st = Random.State.make [| seed |] in
  let int bound = Random.State.int st bound in
  let n = int 11 in
  let blocks = 1 + int (max n 1) in
  let detectors =
    Array.init n (fun i ->
        {
          Detector.d_section = i;
          d_buffer = 0;
          d_form = Detector.Finite;
          d_cost = 1 + int 3;
        })
  in
  let items =
    List.init
      (1 + int 12)
      (fun i ->
        let pc = { Site.kernel = i mod 3; instr = i } in
        { Knapsack.pc; value = int 7; cost = 1 + int 4 })
  in
  (* each pc's classes draw their detectors from one block *)
  let classes_at (it : Knapsack.item) =
    let b = int blocks in
    let block = Array.of_list (List.filter (fun i -> i mod blocks = b) (List.init n Fun.id)) in
    List.init (int 4) (fun _ ->
        let mask = ref 0 in
        if Array.length block > 0 then
          for _ = 0 to int 3 do
            mask := !mask lor (1 lsl block.(int (Array.length block)))
          done;
        (it.Knapsack.pc, 1 + int 3, !mask))
    |> List.filter (fun (_, _, mask) -> mask <> 0)
  in
  (items, detectors, Array.of_list (List.concat_map classes_at items))

let prop_select_matches_reference =
  QCheck2.Test.make ~count:300
    ~name:"Select.of_classes matches the 2^n subset enumeration"
    ~print:(fun (seed, _) -> Printf.sprintf "instance seed %d" seed)
    QCheck2.Gen.(pair int (list_size (int_range 1 6) (int_bound 1000)))
    (fun (seed, permille) ->
      let items, detectors, classes = synthetic_instance seed in
      let s = Select.of_classes items detectors classes in
      let front = reference_front items detectors classes in
      let total = s.Select.t_total_value in
      s.Select.t_front = front
      && List.for_all
           (fun t ->
             let target = (t * total / 1000) + (t mod 3) - 1 in
             let sel = Select.selection_at s ~target in
             let got =
               Select.
                 (sel.sel_mask, sel.sel_dup, sel.sel_value, sel.sel_cost)
             in
             got = reference_selection items detectors classes front ~target)
           permille)

(* --- disabled detectors degenerate to the pure knapsack ----------------- *)

let test_disabled_is_pure () =
  let p = protect ~enabled:false () in
  Alcotest.(check int) "mask empty" 0 p.Protect.r_mixed.Select.sel_mask;
  Alcotest.(check int) "same value" p.Protect.r_pure.Knapsack.value
    p.Protect.r_mixed.Select.sel_value;
  Alcotest.(check int) "same cost" p.Protect.r_pure.Knapsack.cost
    p.Protect.r_mixed.Select.sel_cost;
  Alcotest.(check (list (pair int int)))
    "front = pure frontier"
    (Select.pure_points p.Protect.r_select)
    (Array.to_list
       (Array.map
          (fun pt -> (pt.Select.p_value, pt.Select.p_cost))
          p.Protect.r_select.Select.t_front))

(* --- coverage caching ---------------------------------------------------- *)

let test_coverage_cache_roundtrip () =
  let a = Lazy.force analysis in
  let golden = a.Pipeline.golden in
  let p = protect () in
  let candidates = detectors_of p in
  let si =
    match
      List.find_opt
        (fun si ->
          Array.length candidates.(si) > 0
          && Valuation.bad_labels_in_section a.Pipeline.valuation ~section:si <> [])
        (List.init (Array.length golden.Golden.sections) Fun.id)
    with
    | Some si -> si
    | None -> Alcotest.fail "no section with detectors and bad classes"
  in
  let classes =
    List.map
      (fun l -> l.Valuation.cls)
      (Valuation.bad_labels_in_section a.Pipeline.valuation ~section:si)
  in
  let store = Store.create () in
  let backing = Pipeline.backing_of_store store in
  let fresh =
    Coverage.measure ~backing config golden ~section_index:si
      ~detectors:candidates.(si) ~classes
  in
  let cached =
    Coverage.measure ~backing config golden ~section_index:si
      ~detectors:candidates.(si) ~classes
  in
  Alcotest.(check bool) "first is measured" false fresh.Coverage.c_cached;
  Alcotest.(check bool) "second is cached" true cached.Coverage.c_cached;
  Alcotest.(check int) "no replays on hit" 0 cached.Coverage.c_replays;
  Alcotest.(check (array int))
    "identical masks"
    (Array.map snd fresh.Coverage.c_classes)
    (Array.map snd cached.Coverage.c_classes);
  Alcotest.(check (array int)) "identical covered" fresh.Coverage.c_covered
    cached.Coverage.c_covered;
  (* a different detector set misses: disjoint key space, no false hits *)
  let subset = Array.sub candidates.(si) 0 (Array.length candidates.(si) - 1) in
  if Array.length subset > 0 then begin
    let other =
      Coverage.measure ~backing config golden ~section_index:si ~detectors:subset
        ~classes
    in
    Alcotest.(check bool) "different spec misses" false other.Coverage.c_cached
  end

(* --- mixed beats or matches pure everywhere ----------------------------- *)

let test_mixed_never_worse () =
  let p = protect () in
  Alcotest.(check bool) "mixed value reaches target" true
    (p.Protect.r_mixed.Select.sel_value >= p.Protect.r_pure.Knapsack.value);
  Alcotest.(check bool) "mixed cost never exceeds pure" true
    (p.Protect.r_mixed.Select.sel_cost <= p.Protect.r_pure.Knapsack.cost)

(* --- focus parsing ------------------------------------------------------- *)

let test_focus_of_json () =
  let json =
    {|{ "findings": [
        {"kernel": 0, "instr": 3, "kind": "compute"},
        {"kernel": 1, "instr": 7, "kind": "guard"} ] }|}
  in
  Alcotest.(check (list (pair int int)))
    "pcs extracted"
    [ (0, 3); (1, 7) ]
    (List.map
       (fun pc -> (pc.Site.kernel, pc.Site.instr))
       (Synthesize.focus_of_json json));
  Alcotest.(check int) "garbage yields nothing" 0
    (List.length (Synthesize.focus_of_json "not json at all"))

let () =
  Alcotest.run "detect"
    [
      ( "determinism",
        [
          Alcotest.test_case "protect identical at pool widths 1 and 4" `Quick
            test_pool_width_identity;
          QCheck_alcotest.to_alcotest prop_select_pool_width;
        ] );
      ( "false-positives",
        [
          Alcotest.test_case "no fires on golden or benign perturbed runs"
            `Quick test_zero_false_positives;
        ] );
      ( "pareto",
        [
          QCheck_alcotest.to_alcotest prop_front_monotone;
          QCheck_alcotest.to_alcotest prop_knapsack_points_exact;
          QCheck_alcotest.to_alcotest prop_select_matches_reference;
          Alcotest.test_case "disabled detectors = pure knapsack" `Quick
            test_disabled_is_pure;
          Alcotest.test_case "mixed never worse than pure" `Quick
            test_mixed_never_worse;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "store round-trip is lossless" `Quick
            test_coverage_cache_roundtrip;
        ] );
      ( "seeding",
        [ Alcotest.test_case "focus_of_json" `Quick test_focus_of_json ] );
    ]
