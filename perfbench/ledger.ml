(* The per-layer metrics of a traced run, and the ledger that accounts for
   its end-to-end time. Every traced run prints the same list; a layer the
   workload does not exercise reads 0. Times are summed self time over the
   traced pass; counts come from the untraced reference pass's telemetry. *)

open Common

let layer_metrics ?(counts = []) ?snap ?(extra = []) ~report_bytes ~wall ~traced_wall () =
  let self = Trace.self_times () in
  let ms name = 1000.0 *. Trace.self_s self name in
  let c name = float_of_int (count counts name) in
  let tally = Layers.total () in
  let injections = count counts "campaign.injections" in
  let outcomes = injections + count counts "campaign.injections_avoided" in
  let jobs_s = Trace.jobs_s () in
  let per n x = if n = 0 then 0.0 else x /. float_of_int n in
  let base =
    [
      metric "frontend.ms" "ms" (ms "frontend");
      metric "golden.ms" "ms" (ms "golden");
      metric "prepare.ms" "ms" (ms "prepare");
      metric "store.lookup_ms" "ms" (ms "store.lookup");
      metric "store.publish_ms" "ms" (ms "store.publish");
      metric "store.hit_ratio" "ratio" (ratio tally.Layers.hits tally.Layers.lookups);
      metric "eqclass.ms" "ms" (ms "eqclass");
      metric "campaign.ms" "ms" (ms "campaign");
      metric "campaign.injections" "count" (c "campaign.injections");
      metric "campaign.vm_instructions" "count" (c "campaign.work");
      metric "campaign.ms_per_injection" "ms"
        (per injections (ms "campaign" -. ms "prover.warm"));
      metric "campaign.quarantined_ratio" "ratio"
        (ratio (quarantined counts) (class_outcomes counts));
      metric "prover.ms" "ms" (ms "prover");
      metric "prover.warm_ms" "ms" (ms "prover.warm");
      metric "prover.proved_ratio" "ratio"
        (ratio (count counts "prover.classes_proved") outcomes);
      metric "prover.ms_per_proved_class" "ms" (per tally.Layers.proved (ms "prover"));
      metric "sensitivity.ms" "ms" (ms "sensitivity");
      metric "sensitivity.samples_used" "count" (c "sensitivity.samples_used");
      metric "chisel.ms" "ms" (ms "chisel");
      metric "valuation.ms" "ms" (ms "valuation");
      metric "knapsack.solve_ms" "ms" (ms "knapsack.solve");
      metric "knapsack.select_ms" "ms" (ms "knapsack.select");
      metric "knapsack.solves" "count" (c "knapsack.solves");
      metric "knapsack.dp_cells" "count" (c "knapsack.dp_cells");
      metric "knapsack.take_bytes" "bytes" (c "knapsack.take_bytes");
      metric "report.ms" "ms" (ms "report");
      metric "report.bytes" "bytes" (float_of_int report_bytes);
      metric "persist.load_ms" "ms" (ms "persist.load");
      metric "persist.save_ms" "ms" (ms "persist.save");
      metric "persist.records_appended" "count" (c "persist.records_appended");
      metric "security.ms" "ms" (ms "security");
      metric "detect.synthesize_ms" "ms" (ms "detect.synthesize");
      metric "detect.coverage_ms" "ms" (ms "detect.coverage");
      metric "detect.select_ms" "ms" (ms "detect.select");
      metric "detect.benign_runs" "count" (c "detect.synthesize.benign_runs");
      metric "detect.coverage_replays" "count" (c "detect.coverage.replays");
      metric "detect.subsets" "count" (c "detect.select.subsets");
      metric "failed_ratio" "ratio" 0.0;
      metric "evolve.fresh_s" "s" 0.0;
      metric "evolve.reanalysis_s" "s" 0.0;
      metric "serve.warm_p50_ms" "ms" 0.0;
      metric "serve.warm_p95_ms" "ms" 0.0;
      metric "serve.covered_p50_ms" "ms" 0.0;
      metric "serve.throughput_rps" "1/s" 0.0;
      metric "serve.ping_ms" "ms" 0.0;
      metric "serve.queue_ms" "ms" 0.0;
      metric "serve.server_warm_ms" "ms" 0.0;
      metric "serve.compile_ms" "ms" 0.0;
      metric "serve.select_ms" "ms" 0.0;
      metric "serve.render_ms" "ms" 0.0;
      metric "serve.injection_ms" "ms" 0.0;
      metric "serve.warm_share" "ratio" 0.0;
      metric "serve.covered_share" "ratio" 0.0;
      metric "serve.injection_share" "ratio" 0.0;
      metric "serve.coalesced" "count" 0.0;
      metric "serve.errors" "count" 0.0;
      metric "pool.coordinator_wait_ms" "ms"
        (match snap with
        | Some snap -> float_of_int (volatile snap "pool.coordinator_wait_ns") /. 1e6
        | None -> 0.0);
      metric "ledger.unattributed_share" "ratio"
        (if jobs_s = 0.0 then 0.0 else Trace.self_s self "job" /. jobs_s);
      metric "ledger.trace_overhead_share" "ratio" ((traced_wall -. wall) /. wall);
    ]
  in
  List.map
    (fun m ->
      match List.assoc_opt m.name extra with Some v -> { m with value = v } | None -> m)
    base

let print metrics =
  say "per-layer (traced run):";
  List.iter (fun m -> say "  %-30s %.6g %s" m.name m.value m.unit_) metrics

(* The prover ledger, per traced job that ran the prover: the walk's cost
   per proved class next to the campaign's replay cost per injection. *)
let print_prover () =
  List.iter
    (fun job ->
      let self = Trace.self_times ~job () in
      let ms name = 1000.0 *. Trace.self_s self name in
      let per n x = if n = 0 then 0.0 else x /. float_of_int n in
      match Hashtbl.find_opt Layers.tallies job with
      | Some t when Trace.calls self "prover" > 0 ->
        let replay = ms "campaign" -. ms "prover.warm" in
        say
          "  prover ledger %-16s %6d proved in %8.3f ms (%.5f ms/class); replay %8.3f ms \
           for %6d injections (%.5f ms/injection)"
          (Trace.label job) t.Layers.proved (ms "prover")
          (per t.Layers.proved (ms "prover"))
          replay t.Layers.injections (per t.Layers.injections replay)
      | _ -> ())
    (Trace.job_ids ())

let write_trace name seed =
  Trace.write (keep_path "traces" (Printf.sprintf "%s-%d.jsonl" name seed))
