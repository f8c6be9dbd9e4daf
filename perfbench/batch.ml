(* The pass runner shared by the batch workloads (evolve, faults,
   protect). A pass runs the workload's fixed job list once, in order.
   The timed phase runs at least two passes, and more while another one
   still fits in the run's seconds; every pass must reproduce the first
   pass's outputs and deterministic counters exactly. *)

open Common

type value = {
  texts : string list;  (** printed outputs: reports, JSON exports *)
  fingerprint : string;  (** digest of the structured outputs *)
  check : unit -> unit;  (** deferred output checks, run after timing *)
}

type job = {
  label : string;
  group : string;  (** which per-group sum the job's time goes to *)
  run : unit -> unit -> value;
      (** does the job's work (timed) and returns how to build its value
          (untimed), so digests and check inputs cost the job nothing *)
}

type pass = {
  wall : float;  (** the summed time of the pass's jobs *)
  times : (job * float) list;
  digest : string;  (** over every job's texts and fingerprint, in label order *)
  counts : counts;
  snap : Telemetry.snapshot;
  values : (string * value) list;
  raised : int;
}

let fingerprint x =
  Digest.to_hex (Digest.string (Marshal.to_string x [ Marshal.No_sharing ]))

let run_pass jobs =
  let (times, values, raised), counts, snap =
    counted (fun () ->
        List.fold_left
          (fun (times, values, raised) job ->
            let t = now () in
            match job.run () with
            | finish ->
              let dt = now () -. t in
              ((job, dt) :: times, (job.label, finish ()) :: values, raised)
            | exception e ->
              check false "%s raised %s" job.label (Printexc.to_string e);
              (times, values, raised + 1))
          ([], [], 0) jobs)
  in
  let values = List.rev values in
  let by_label = List.sort (fun (a, _) (b, _) -> compare a b) values in
  {
    wall = List.fold_left (fun acc (_, t) -> acc +. t) 0.0 times;
    times = List.rev times;
    digest =
      digest_strings
        (List.concat_map (fun (l, v) -> l :: v.fingerprint :: v.texts) by_label);
    counts;
    snap;
    values;
    raised;
  }

(* Timed passes: at least two, then more while another still fits in
   [seconds]. [cleanup] runs between passes, outside the pass time. Also
   returns the peak RSS right after the second pass: the heap has grown to
   its working size by then, and the reading does not depend on how many
   passes fit in the run. *)
let timed_passes ~seconds ~cleanup make_jobs =
  let start = now () and rss = ref 0.0 in
  let rec loop i acc =
    let pass = run_pass (make_jobs i) in
    cleanup i;
    if i = 1 then rss := peak_rss_mb ();
    let acc = { pass with values = (if i = 0 then pass.values else []) } :: acc in
    if i >= 1 && now () -. start +. pass.wall > seconds then List.rev acc
    else loop (i + 1) acc
  in
  let passes = loop 0 [] in
  (passes, !rss)

let failed_ops (p : pass) = quarantined p.counts + p.raised
let attempted_ops (p : pass) = class_outcomes p.counts + p.raised
let first = function p :: _ -> p | [] -> invalid_arg "Batch.first"

(* After the timed phase: every pass must repeat the first pass's outputs
   and counters, and the first pass's deferred output checks run. *)
let verify passes =
  let p0 = first passes in
  List.iteri
    (fun i p ->
      check (p.digest = p0.digest) "pass %d outputs differ from pass 0" i;
      check (p.counts = p0.counts) "pass %d counters differ from pass 0 (%s vs %s)" i
        (counts_digest p.counts) (counts_digest p0.counts))
    passes;
  List.iter (fun (_, v) -> v.check ()) p0.values

let group_s (p : pass) group =
  List.fold_left (fun acc (j, t) -> if j.group = group then acc +. t else acc) 0.0 p.times

(* The summary lines; returns the run's attempted and failed operations. *)
let print_passes ~name ~seed ~groups passes =
  let p0 = first passes in
  say "passes: %d; outputs digest %s; counters digest %s (%s)" (List.length passes)
    p0.digest (counts_digest p0.counts)
    (write_counts ~name ~seed p0.counts);
  let per_pass f = List.map f passes in
  summary "wall per pass" "s" ~scale:1.0 (per_pass (fun p -> p.wall));
  List.iter
    (fun g -> summary (g ^ " per pass") "s" ~scale:1.0 (per_pass (fun p -> group_s p g)))
    groups;
  summary "job latency" "ms" ~scale:1000.0
    (List.concat_map (fun p -> List.map snd p.times) passes);
  let attempted = List.fold_left (fun acc p -> acc + attempted_ops p) 0 passes in
  let failed = List.fold_left (fun acc p -> acc + failed_ops p) 0 passes in
  say "  %-28s %d of %d class outcomes (%.6f)" "failed_ratio" failed attempted
    (ratio failed attempted);
  List.iter
    (fun (name, v) ->
      if
        String.starts_with ~prefix:"campaign.model." name
        && String.ends_with ~suffix:".quarantined" name
      then say "  %-28s %d per pass" name v)
    p0.counts;
  (attempted, failed)

(* The traced run: one untraced pass of the composite calls, then one
   traced pass of the recomposed calls; each traced job must reproduce its
   composite job's outputs exactly. *)
let traced ~composite ~recomposed =
  let reference = run_pass composite in
  Hashtbl.reset Layers.tallies;
  Trace.reset ();
  Trace.enabled := true;
  let traced = run_pass recomposed in
  Trace.enabled := false;
  let n = List.length reference.values and n' = List.length traced.values in
  if n <> n' then check false "the traced pass completed %d jobs, the composite %d" n' n
  else
    List.iter2
      (fun (label, (a : value)) (label', (b : value)) ->
        check (label = label') "traced job order differs: %s vs %s" label label';
        check (a.fingerprint = b.fingerprint)
          "%s: recomposed valuation or selection differs" label;
        check (a.texts = b.texts) "%s: recomposed report differs" label)
      reference.values traced.values;
  verify [ reference ];
  (reference, traced)
