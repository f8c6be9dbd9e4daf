(* The traced run's view of the two composite entry points,
   [Pipeline.analyze_prepared] and [Protect.run]: each is recomposed here
   from the public functions it calls, with a benchmark-side span around
   every call. The traced run checks that the recomposed valuation,
   selection and report equal the composite's, so the per-layer times are
   times of the same work.

   One deliberate difference: the composite fans several missed sections
   out over the pool at once, while the recomposition analyzes them one
   after another, each with the pool inside its own campaign and
   sensitivity loops (results are identical for any pool width). Spans
   then nest on one domain and self times add up to the job's time. *)

open Common
module Store = Fastflip.Store
module Golden = Ff_vm.Golden
module Eqclass = Ff_inject.Eqclass
module Site = Ff_inject.Site
module Prover = Ff_inject.Prover
module Sensitivity = Ff_sensitivity.Sensitivity
module Propagate = Ff_chisel.Propagate
module Hashing = Ff_support.Hashing
module Synthesize = Ff_detect.Synthesize
module Coverage = Ff_detect.Coverage
module Select = Ff_detect.Select
module Protect = Ff_detect.Protect

let span = Trace.span

(* Counts the traced pass makes at the layer boundaries it wraps, per
   traced job. *)
type tally = {
  mutable lookups : int;
  mutable hits : int;
  mutable proved : int;  (** classes the separate prover call decided *)
  mutable injections : int;  (** pilots the campaigns replayed *)
}

let tallies : (int, tally) Hashtbl.t = Hashtbl.create 64

let tally () =
  let job = !Trace.current_job in
  match Hashtbl.find_opt tallies job with
  | Some t -> t
  | None ->
    let t = { lookups = 0; hits = 0; proved = 0; injections = 0 } in
    Hashtbl.replace tallies job t;
    t

let total () =
  Hashtbl.fold
    (fun _ t acc ->
      {
        lookups = acc.lookups + t.lookups;
        hits = acc.hits + t.hits;
        proved = acc.proved + t.proved;
        injections = acc.injections + t.injections;
      })
    tallies
    { lookups = 0; hits = 0; proved = 0; injections = 0 }

let traced_backing (b : Pipeline.backing) =
  {
    Pipeline.lookup =
      (fun key ->
        let r = span "store.lookup" (fun () -> b.Pipeline.lookup key) in
        let t = tally () in
        t.lookups <- t.lookups + 1;
        if Option.is_some r then t.hits <- t.hits + 1;
        r);
    publish =
      (fun record -> span "store.publish" (fun () -> b.Pipeline.publish record));
  }

(* A record reused from another schedule index carries that index; the
   composite rewrites it to the current one, and so must we. *)
let rebase (record : Store.section_record) ~section_index =
  let campaign = record.Store.rec_campaign in
  if campaign.Campaign.section_index = section_index then record
  else begin
    let rebase_class (cls : Eqclass.t) =
      {
        cls with
        Eqclass.members = Array.map (fun (_, dyn) -> (section_index, dyn)) cls.members;
        pilot = { cls.pilot with Site.section = section_index };
      }
    in
    {
      record with
      Store.rec_campaign =
        {
          campaign with
          Campaign.section_index;
          s_classes =
            Array.map (fun (cls, o) -> (rebase_class cls, o)) campaign.Campaign.s_classes;
        };
      rec_sensitivity = { record.Store.rec_sensitivity with Sensitivity.section_index };
    }
  end

(* One missed section: class enumeration, a separate prover call on the
   same classes, the campaign, and sensitivity sampling seeded exactly as
   the pipeline seeds it. The separate call pays what the campaign's own
   pre-pass pays in the composite: the section's golden recording and
   kernel liveness (both cached by the prover) plus the walk. The campaign
   then repeats the walk warm, so the walk is timed once more, warm, and
   the campaign's replay time is its time minus that. *)
let analyze_section ~pool (config : Pipeline.config) golden ~section_index
    ~(key : Store.key) =
  let cc = config.Pipeline.campaign in
  let model = cc.Campaign.model in
  let section = golden.Golden.sections.(section_index) in
  let classes =
    span "eqclass" (fun () -> Eqclass.for_section ~model section cc.Campaign.bits)
  in
  let prove () =
    Prover.prove_section golden ~section_index ~timeout_factor:cc.Campaign.timeout_factor
      ~model cc.Campaign.prove (Array.of_list classes)
  in
  let proofs = span "prover" prove in
  ignore (span "prover.warm" prove);
  let t = tally () in
  Array.iter (fun p -> if Option.is_some p then t.proved <- t.proved + 1) proofs;
  let campaign =
    span "campaign" (fun () ->
        Campaign.run_section ~pool ~classes golden ~section_index cc)
  in
  t.injections <- t.injections + campaign.Campaign.s_injections;
  let rng =
    Rng.create
      (Hashing.combine config.Pipeline.seed
         (Hashing.combine key.Store.code_hash key.Store.input_hash))
  in
  let sensitivity =
    span "sensitivity" (fun () ->
        Sensitivity.estimate ~samples:config.Pipeline.sensitivity_samples
          ~max_perturbation:config.Pipeline.max_perturbation
          ~safety_factor:config.Pipeline.safety_factor ~pool ~rng golden ~section_index)
  in
  {
    Store.rec_key = key;
    rec_campaign = campaign;
    rec_sensitivity = sensitivity;
    rec_work = campaign.Campaign.s_work + sensitivity.Sensitivity.work;
  }

type plan = Cached of Store.section_record | First | Dup

(* [Pipeline.analyze_prepared], call by call. *)
let analyze ?backing ~pool (config : Pipeline.config) (prepared : Pipeline.prepared) =
  let backing = Option.map traced_backing backing in
  let golden = prepared.Pipeline.p_golden in
  let keys = prepared.Pipeline.p_keys in
  let missed = Hashtbl.create 16 in
  let plan =
    Array.map
      (fun key ->
        if Hashtbl.mem missed key then Dup
        else
          match Option.bind backing (fun b -> b.Pipeline.lookup key) with
          | Some record -> Cached record
          | None ->
            Hashtbl.add missed key ();
            First)
      keys
  in
  let fresh = Hashtbl.create 16 in
  Array.iteri
    (fun section_index key ->
      match plan.(section_index) with
      | First ->
        let record = analyze_section ~pool config golden ~section_index ~key in
        Hashtbl.replace fresh key record
      | Cached _ | Dup -> ())
    keys;
  let work = ref 0 and total = ref 0 and reused = ref 0 and analyzed = ref 0 in
  let reuse (r : Store.section_record) =
    incr reused;
    total := !total + r.Store.rec_work;
    r
  in
  let charge (r : Store.section_record) =
    incr analyzed;
    work := !work + r.Store.rec_work;
    total := !total + r.Store.rec_work;
    r
  in
  let sections =
    Array.mapi
      (fun section_index key ->
        let record =
          match plan.(section_index), backing with
          | Cached r, _ -> reuse r
          | First, _ ->
            let r = Hashtbl.find fresh key in
            Option.iter (fun b -> b.Pipeline.publish r) backing;
            charge r
          | Dup, Some b -> (
            match b.Pipeline.lookup key with
            | Some r -> reuse r
            | None -> failwith "recomposed analyze: duplicate key missing from the store")
          | Dup, None -> charge (Hashtbl.find fresh key)
        in
        rebase record ~section_index)
      keys
  in
  let specs = Array.map (fun r -> r.Store.rec_sensitivity) sections in
  let propagation = span "chisel" (fun () -> Propagate.run golden ~specs) in
  let campaigns = Array.map (fun r -> r.Store.rec_campaign) sections in
  let valuation =
    span "valuation" (fun () ->
        Valuation.of_fastflip golden ~propagation ~sections:campaigns
          ~epsilon:config.Pipeline.epsilon)
  in
  let solution =
    span "knapsack.solve" (fun () ->
        Knapsack.solve (Knapsack.items_of_valuation valuation))
  in
  {
    Pipeline.golden;
    dataflow = prepared.Pipeline.p_dataflow;
    sections;
    propagation;
    valuation;
    solution;
    work = !work;
    total_section_work = !total;
    sections_reused = !reused;
    sections_analyzed = !analyzed;
  }

let synth_seed (config : Pipeline.config) =
  (* Protect derives its synthesis stream from the analysis seed in a
     reserved lane; the recomposition must draw from the same one. *)
  Hashing.combine config.Pipeline.seed 0x6465746563L

(* [Protect.run ~detectors_enabled:true], call by call. *)
let protect ~pool (config : Pipeline.config) (analysis : Pipeline.analysis) ~target =
  let golden = analysis.Pipeline.golden in
  let valuation = analysis.Pipeline.valuation in
  let specs = Array.map (fun r -> r.Store.rec_sensitivity) analysis.Pipeline.sections in
  let synth =
    span "detect.synthesize" (fun () ->
        Synthesize.run ~pool ~max_perturbation:config.Pipeline.max_perturbation
          ~safety_factor:config.Pipeline.safety_factor ~seed:(synth_seed config) golden
          ~specs)
  in
  let coverages =
    List.filter_map
      (fun si ->
        (* A coverage mask holds at most 62 detectors; Protect.run caps the
           candidates the same way. *)
        let candidates = synth.Synthesize.candidates.(si) in
        let candidates =
          if Array.length candidates > 62 then Array.sub candidates 0 62 else candidates
        in
        let bad = Valuation.bad_labels_in_section valuation ~section:si in
        if Array.length candidates = 0 || bad = [] then None
        else
          Some
            (span "detect.coverage" (fun () ->
                 Coverage.measure ~pool config golden ~section_index:si
                   ~detectors:candidates
                   ~classes:(List.map (fun l -> l.Valuation.cls) bad))))
      (List.init (Array.length golden.Golden.sections) Fun.id)
  in
  let select = span "detect.select" (fun () -> Select.build valuation coverages) in
  let target_value =
    int_of_float (ceil (target *. float_of_int select.Select.t_total_value))
  in
  let mixed =
    span "detect.select" (fun () -> Select.selection_at select ~target:target_value)
  in
  let pure =
    span "knapsack.select" (fun () ->
        Knapsack.select select.Select.t_pure ~target:target_value)
  in
  {
    Protect.r_synth = Some synth;
    r_coverages = coverages;
    r_select = select;
    r_target = target;
    r_mixed = mixed;
    r_pure = pure;
    r_work =
      synth.Synthesize.work
      + List.fold_left (fun acc c -> acc + c.Coverage.c_work) 0 coverages;
  }
