(* Shared plumbing for the benchmark workloads: clocks, sample summaries,
   process memory, scratch directories, telemetry deltas and the result
   record every workload returns. *)

module Pipeline = Fastflip.Pipeline
module Knapsack = Fastflip.Knapsack
module Valuation = Fastflip.Valuation
module Telemetry = Ff_support.Telemetry
module Stats = Ff_support.Stats
module Rng = Ff_support.Rng
module Pool = Ff_support.Pool
module Campaign = Ff_inject.Campaign
module Defs = Ff_benchmarks.Defs
module Registry = Ff_benchmarks.Registry

let now () = Unix.gettimeofday ()

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- results ------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

type run_result = { attempted : int; failed : int; metrics : metric list }

let metric name unit_ value = { name; value; unit_ }

(* Every check failure is collected and printed; any of them makes the
   result incorrect and the exit code nonzero. *)
let failures = ref []

let check ok fmt =
  Printf.ksprintf (fun msg -> if not ok then failures := msg :: !failures) fmt

(* Human-readable report lines go to stdout before the final JSON line. *)
let say fmt =
  Printf.ksprintf
    (fun s ->
      print_string s;
      print_newline ())
    fmt

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* --- sample summaries --------------------------------------------------- *)

let median = function [] -> 0.0 | xs -> Stats.median xs
let percentile p = function [] -> 0.0 | xs -> Stats.percentile p xs

(* The highest of p90/p95/p99 with at least ten samples beyond it. *)
let tail_percentile xs =
  let n = float_of_int (List.length xs) in
  List.fold_left
    (fun acc p -> if n *. (1.0 -. (p /. 100.0)) >= 10.0 then Some p else acc)
    None [ 90.0; 95.0; 99.0 ]

(* A timing as its median, the highest percentile the sample supports and
   the sample count. Below 20 samples even the median has fewer than ten
   samples beyond it, so the values are listed instead. *)
let summary label unit_ ~scale xs =
  let n = List.length xs in
  if n < 20 then
    say "  %-28s %s %s  (n=%d)" label
      (String.concat " "
         (List.map (fun x -> Printf.sprintf "%.3f" (x *. scale)) (List.sort compare xs)))
      unit_ n
  else
    let tail =
      match tail_percentile xs with
      | Some p -> Printf.sprintf "  p%.0f %.3f %s" p (percentile p xs *. scale) unit_
      | None -> ""
    in
    say "  %-28s median %.3f %s%s  (n=%d)" label (median xs *. scale) unit_ tail n

(* --- process memory ----------------------------------------------------- *)

(* VmHWM of a process, in MiB: its resident high-water mark. *)
let peak_rss_mb ?(pid = "self") () =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> failwith "no VmHWM in /proc status"
    | line -> (
      match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
      | kb -> float_of_int kb /. 1024.0
      | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> scan ())
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* --- scratch directories (inside the working directory) ----------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let scratch_root = Filename.concat (Sys.getcwd ()) ".perfbench"

(* This run's own directory, removed when the run ends. *)
let scratch =
  lazy
    (let dir = Filename.concat scratch_root (Printf.sprintf "run-%d" (Unix.getpid ())) in
     rm_rf dir;
     mkdir_p dir;
     at_exit (fun () -> rm_rf dir);
     dir)

let scratch_path name = Filename.concat (Lazy.force scratch) name

(* Outputs kept after the run, under .perfbench/<kind>/. *)
let keep_path kind file =
  let dir = Filename.concat scratch_root kind in
  mkdir_p dir;
  Filename.concat dir file

(* The seed orders a workload's jobs; the same seed gives the same order. *)
let shuffled rng list =
  let a = Array.of_list list in
  Rng.shuffle rng a;
  Array.to_list a

(* --- telemetry ---------------------------------------------------------- *)

type counts = (string * int) list

(* The deterministic counters of one pass: telemetry is reset before the
   pass and read after it, so passes over the same job list must agree
   exactly. *)
let counted f =
  Telemetry.reset ();
  let r = f () in
  let snap = Telemetry.snapshot () in
  (r, snap.Telemetry.snap_counters, snap)

let count (counts : counts) name = Option.value ~default:0 (List.assoc_opt name counts)

let volatile (snap : Telemetry.snapshot) name =
  Option.value ~default:0 (List.assoc_opt name snap.Telemetry.snap_volatile)

(* The operations behind the batch workloads' failed ratio: one per
   equivalence-class outcome, proved or replayed, section-local or whole
   trace. A class fails when its replay is quarantined. *)
let class_outcomes counts =
  count counts "campaign.injections"
  + count counts "campaign.injections_avoided"
  + count counts "campaign.baseline.injections"

let quarantined counts = count counts "campaign.quarantined"

let digest_strings parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))

let counts_lines (counts : counts) =
  List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counts

let counts_digest counts = digest_strings (counts_lines counts)

(* One pass's deterministic counters, one per line, kept after the run so
   two runs' counts can be compared exactly. *)
let write_counts ~name ~seed counts =
  let path = keep_path "counters" (Printf.sprintf "%s-%d.txt" name seed) in
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) (counts_lines counts);
  close_out oc;
  path
