(* evolve: the paper's use case. For each benchmark, a fresh store, then
   V_none -> V_small -> V_large, each step being what `fastflip analyze
   --store` does once per commit: compile, load the store, analyze at
   Pipeline.default_config, render the report at target 0.9, save the
   store. *)

open Common
module Store = Fastflip.Store
module Persist = Fastflip.Persist
module Report = Ff_serve.Report
module Frontend = Ff_lang.Frontend

let target = 0.9
let config = Pipeline.default_config
let span = Trace.span

let load path =
  if Persist.present ~path then
    match Persist.load ~path with Ok (store, _) -> store | Error e -> failwith e
  else Store.create ()

(* Keeps only the valuation, selection and report of the analysis: the
   deferred checks must not hold golden traces or knapsack tables. *)
let value ~pool ~program ~version ~label (a : Pipeline.analysis) report () =
  let valuation = a.Pipeline.valuation in
  let selection = Pipeline.select a ~target in
  let check_outputs () =
    Checks.selection ~what:label valuation ~target selection;
    if version <> Defs.V_none then begin
      (* The incremental result must equal a storeless analysis from
         scratch; only the reuse/work lines of the report may differ. *)
      let scratch = Pipeline.analyze ~pool config program in
      Checks.same_outputs ~what:(label ^ " vs from-scratch") (valuation, selection)
        (scratch.Pipeline.valuation, Pipeline.select scratch ~target);
      check
        (Checks.without_reuse_lines report
        = Checks.without_reuse_lines (Report.analysis ~target scratch))
        "%s: report differs from the from-scratch report" label
    end
  in
  {
    Batch.texts = [ report ];
    fingerprint = Batch.fingerprint (valuation, selection);
    check = check_outputs;
  }

let step ~pool ~path ~version ~label source () =
  let program = Frontend.compile_exn source in
  let store = load path in
  let a = Pipeline.analyze ~store ~pool config program in
  let report = Report.analysis ~target a in
  ignore (Persist.save store ~path);
  value ~pool ~program ~version ~label a report

let step_traced ~pool ~path ~version ~label source () =
  Trace.job label (fun () ->
      let program = span "frontend" (fun () -> Frontend.compile_exn source) in
      let store = span "persist.load" (fun () -> load path) in
      let prepared = span "prepare" (fun () -> Pipeline.prepare config program) in
      let backing = Pipeline.backing_of_store store in
      let a = Layers.analyze ~backing ~pool config prepared in
      let report = span "report" (fun () -> Report.analysis ~target a) in
      ignore (span "persist.save" (fun () -> Persist.save store ~path));
      value ~pool ~program ~version ~label a report)

let dir i = scratch_path (Printf.sprintf "evolve-%d" i)

(* Pass [i] keeps its stores under its own directory. *)
let jobs ~traced ~pool ~order i =
  mkdir_p (dir i);
  List.concat_map
    (fun (b : Defs.t) ->
      let path = Filename.concat (dir i) (b.Defs.name ^ ".store") in
      List.map
        (fun version ->
          let label = b.Defs.name ^ "/" ^ Defs.version_name version in
          let step = if traced then step_traced else step in
          {
            Batch.label;
            group = (if version = Defs.V_none then "fresh" else "reanalysis");
            run = step ~pool ~path ~version ~label (b.Defs.source version);
          })
        Defs.all_versions)
    order

let cleanup i = rm_rf (dir i)
