(* protect: a cold, storeless analysis plus Protect.run with detectors at
   target 0.9 on the V_large versions of Campipe, FFT, BScholes and SHA2,
   at the quick config bench/main.exe uses (bits 1,21,42,62 and 60
   sensitivity samples). The only path through Ff_detect: synthesis
   benign runs, coverage re-injection and subset selection. LUD is left
   out because it alone takes ~28 s. *)

open Common
module Protect = Ff_detect.Protect
module Site = Ff_inject.Site

let target = 0.9
let span = Trace.span

let benchmarks =
  List.map
    (fun name -> Option.get (Registry.find name))
    [ "Campipe"; "FFT"; "BScholes"; "SHA2" ]

let config =
  let c = Pipeline.default_config in
  {
    c with
    Pipeline.campaign =
      { c.Pipeline.campaign with Campaign.bits = Site.Bit_list [ 1; 21; 42; 62 ] };
    sensitivity_samples = 60;
  }

let value ~label (a : Pipeline.analysis) (r : Protect.t) () =
  let valuation = a.Pipeline.valuation in
  {
    Batch.texts = [ Protect.report r; Protect.pareto_json r ];
    fingerprint = Batch.fingerprint (valuation, r.Protect.r_pure, r.Protect.r_mixed);
    check = (fun () -> Checks.protect ~what:label r valuation);
  }

let run ~traced ~pool ~label program () =
  if not traced then begin
    let a = Pipeline.analyze ~pool config program in
    value ~label a (Protect.run ~pool ~detectors_enabled:true config a ~target)
  end
  else
    Trace.job label (fun () ->
        let prepared = span "prepare" (fun () -> Pipeline.prepare config program) in
        let a = Layers.analyze ~pool config prepared in
        value ~label a (Layers.protect ~pool config a ~target))

let jobs ~traced ~pool ~(programs : (Defs.t * Ff_ir.Program.t) list) _ =
  List.map
    (fun ((b : Defs.t), program) ->
      let label = b.Defs.name ^ "/Large" in
      { Batch.label; group = "protect"; run = run ~traced ~pool ~label program })
    programs
