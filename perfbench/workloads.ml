(* Set-up, timed phase, checks and metrics of the batch workloads; the
   serve workload lives in Wl_serve. *)

open Common

(* A batch workload: its sources, the per-group sums it prints, the
   workload-specific figures its traced run records, how it makes pass
   [i]'s jobs (traced or not), and what it removes between passes. *)
type batch = {
  name : string;
  sources : (Defs.t * string) list;
  groups : string list;
  figures : Batch.pass -> (string * float) list;
  make :
    pool:Pool.t ->
    programs:(Defs.t * Ff_ir.Program.t) list ->
    traced:bool ->
    int ->
    Batch.job list;
  cleanup : int -> unit;
}

(* Set-up: a two-domain pool and every source of the job list compiled. *)
let setup sources =
  timed (fun () ->
      let programs =
        List.map (fun (b, s) -> (b, Ff_lang.Frontend.compile_exn s)) sources
      in
      (Pool.create ~domains:2, programs))

(* Set-up takes milliseconds, so one reading catches whatever the CPU was
   doing in that instant. [setup_s] is the median of 21 set-ups: ten
   before the timed phase, the one the run uses, and ten after it. *)
let extra_setups sources =
  List.init 10 (fun _ ->
      let (pool, _), t = setup sources in
      Pool.shutdown pool;
      t)

let run_batch (w : batch) ~seed ~seconds ~traced =
  let before = if traced then [] else extra_setups w.sources in
  let (pool, programs), setup_s = setup w.sources in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let make = w.make ~pool ~programs in
  if not traced then begin
    let passes, rss =
      Batch.timed_passes ~seconds ~cleanup:w.cleanup (make ~traced:false)
    in
    let setups = before @ (setup_s :: extra_setups w.sources) in
    summary "setup" "s" ~scale:1.0 setups;
    let attempted, failed =
      Batch.print_passes ~name:w.name ~seed ~groups:w.groups passes
    in
    Batch.verify passes;
    {
      attempted;
      failed;
      metrics =
        [
          metric "setup_s" "s" (median setups);
          metric "wall_s" "s" (median (List.map (fun p -> p.Batch.wall) passes));
          metric "peak_rss_mb" "MB" rss;
        ];
    }
  end
  else begin
    let reference, traced_pass =
      Batch.traced ~composite:(make ~traced:false 0) ~recomposed:(make ~traced:true 1)
    in
    w.cleanup 0;
    w.cleanup 1;
    Ledger.write_trace w.name seed;
    let attempted, failed =
      Batch.print_passes ~name:(w.name ^ "-traced") ~seed ~groups:w.groups [ reference ]
    in
    let report_bytes =
      List.fold_left
        (fun acc (_, v) ->
          List.fold_left (fun a t -> a + String.length t) acc v.Batch.texts)
        0 reference.Batch.values
    in
    let metrics =
      Ledger.layer_metrics ~counts:reference.Batch.counts ~snap:reference.Batch.snap
        ~report_bytes ~wall:reference.Batch.wall ~traced_wall:traced_pass.Batch.wall
        ~extra:(("failed_ratio", ratio failed attempted) :: w.figures reference)
        ()
    in
    Ledger.print metrics;
    Ledger.print_prover ();
    { attempted; failed; metrics }
  end

let evolve ~seed ~seconds ~traced =
  let order = shuffled (Rng.create (Int64.of_int seed)) Registry.all in
  run_batch ~seed ~seconds ~traced
    {
      name = "evolve";
      sources =
        List.concat_map
          (fun (b : Defs.t) -> List.map (fun v -> (b, b.Defs.source v)) Defs.all_versions)
          order;
      groups = [ "fresh"; "reanalysis" ];
      figures =
        (fun p ->
          [
            ("evolve.fresh_s", Batch.group_s p "fresh");
            ("evolve.reanalysis_s", Batch.group_s p "reanalysis");
          ]);
      make = (fun ~pool ~programs:_ ~traced -> Wl_evolve.jobs ~traced ~pool ~order);
      cleanup = Wl_evolve.cleanup;
    }

let faults ~seed ~seconds ~traced =
  let order = shuffled (Rng.create (Int64.of_int seed)) Registry.all in
  run_batch ~seed ~seconds ~traced
    {
      name = "faults";
      sources = List.map (fun (b : Defs.t) -> (b, b.Defs.source Defs.V_none)) order;
      groups = [ "skip"; "opcode"; "memflip"; "security" ];
      figures = (fun _ -> []);
      make = (fun ~pool ~programs ~traced -> Wl_faults.jobs ~traced ~pool ~programs);
      cleanup = ignore;
    }

let protect ~seed ~seconds ~traced =
  let order = shuffled (Rng.create (Int64.of_int seed)) Wl_protect.benchmarks in
  run_batch ~seed ~seconds ~traced
    {
      name = "protect";
      sources = List.map (fun (b : Defs.t) -> (b, b.Defs.source Defs.V_large)) order;
      groups = [];
      figures = (fun _ -> []);
      make = (fun ~pool ~programs ~traced -> Wl_protect.jobs ~traced ~pool ~programs);
      cleanup = ignore;
    }
