(* faults: cold, storeless analyses of each benchmark's V_none under the
   skip, opcode and memflip fault models, plus the security campaign
   under skip. The prover abstains on these models, so replay,
   sensitivity and the golden run carry the time. *)

open Common
module Security = Fastflip.Security
module Report = Ff_serve.Report
module Golden = Ff_vm.Golden
module Fault_model = Ff_inject.Fault_model

let target = 0.9
let span = Trace.span
let models = [ Fault_model.Skip; Fault_model.Opcode; Fault_model.of_string_exn "memflip" ]

let config model =
  let c = Pipeline.default_config in
  { c with Pipeline.campaign = { c.Pipeline.campaign with Campaign.model } }

let value ~label valuation selection report =
  {
    Batch.texts = [ report ];
    fingerprint = Batch.fingerprint (valuation, selection);
    check = (fun () -> Checks.selection ~what:label valuation ~target selection);
  }

let analysis_value ~label (a : Pipeline.analysis) report () =
  value ~label a.Pipeline.valuation (Pipeline.select a ~target) report

let security_value ~label (s : Security.t) report () =
  value ~label s.Security.s_valuation (Security.protect_first s ~target) report

let analyze ~traced ~pool ~model ~label program () =
  let config = config model in
  if not traced then begin
    let a = Pipeline.analyze ~pool config program in
    analysis_value ~label a (Report.analysis ~target a)
  end
  else
    Trace.job label (fun () ->
        let prepared = span "prepare" (fun () -> Pipeline.prepare config program) in
        let a = Layers.analyze ~pool config prepared in
        analysis_value ~label a (span "report" (fun () -> Report.analysis ~target a)))

let security ~traced ~pool ~label program () =
  let config = config Fault_model.Skip in
  let campaign = config.Pipeline.campaign and epsilon = config.Pipeline.epsilon in
  if not traced then begin
    let golden = Golden.run program in
    let s = Security.analyze ~pool ~epsilon golden campaign in
    security_value ~label s (Security.report ~target s)
  end
  else
    Trace.job label (fun () ->
        let golden = span "golden" (fun () -> Golden.run program) in
        let s =
          span "security" (fun () -> Security.analyze ~pool ~epsilon golden campaign)
        in
        security_value ~label s (span "report" (fun () -> Security.report ~target s)))

let jobs ~traced ~pool ~(programs : (Defs.t * Ff_ir.Program.t) list) _ =
  List.concat_map
    (fun ((b : Defs.t), program) ->
      let job group run = { Batch.label = b.Defs.name ^ "/" ^ group; group; run } in
      List.map
        (fun model ->
          let group = Fault_model.name model in
          job group
            (analyze ~traced ~pool ~model ~label:(b.Defs.name ^ "/" ^ group) program))
        models
      @ [
          job "security"
            (security ~traced ~pool ~label:(b.Defs.name ^ "/security") program);
        ])
    programs
