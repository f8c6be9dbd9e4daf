(* The repository benchmark.

   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--cli PATH]

   Runs one named workload in this process (the serve workload also
   starts a `fastflip serve` daemon from --cli), prints human-readable
   summaries, and ends with one JSON line: with --trace 0 the end-to-end
   metrics, with --trace 1 the per-layer metrics of a separate traced
   run. Exits nonzero when any output check fails. See README.md. *)

open Common

let usage () =
  prerr_endline
    "usage: perfbench --workload evolve|faults|protect|serve --seed N --seconds S \
     --trace 0|1 [--cli PATH]";
  exit 2

(* Every digit as measured; a non-finite value (already a failed check)
   prints as 0 so the line stays JSON. *)
let json_number v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_json ~correct (r : run_result) =
  let metrics =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value)
          m.unit_)
      r.metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    r.attempted r.failed (String.concat ", " metrics)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  let cli = ref "" in
  let rec parse = function
    | "--workload" :: v :: rest ->
      workload := v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_of_string v;
      parse rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string v;
      parse rest
    | "--trace" :: v :: rest ->
      trace := int_of_string v;
      parse rest
    | "--cli" :: v :: rest ->
      cli := v;
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then usage ();
  let traced = !trace = 1 in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Telemetry.set_enabled true;
  let run =
    match !workload with
    | "evolve" -> Workloads.evolve
    | "faults" -> Workloads.faults
    | "protect" -> Workloads.protect
    | "serve" when !cli <> "" -> Wl_serve.run ~cli:!cli
    | _ -> usage ()
  in
  say "perfbench %s seed %d seconds %g trace %d" !workload !seed !seconds !trace;
  let r = run ~seed:!seed ~seconds:!seconds ~traced in
  List.iter
    (fun m -> check (Float.is_finite m.value) "%s is not a finite number" m.name)
    r.metrics;
  if not traced then begin
    say "end-to-end:";
    List.iter (fun m -> say "  %-30s %.6g %s" m.name m.value m.unit_) r.metrics
  end;
  let failures = List.rev !failures in
  List.iter (fun f -> say "CHECK FAILED: %s" f) failures;
  let correct = failures = [] in
  say "outputs %s" (if correct then "correct" else "INCORRECT");
  print_json ~correct r;
  exit (if correct then 0 else 1)
