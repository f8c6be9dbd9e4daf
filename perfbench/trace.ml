(* Benchmark-side spans for the traced run: name, start, end, parent and
   job. Spans are recorded only around calls into the libraries' public
   functions, from the benchmark's own code, on the driving domain. They
   are kept in memory and written out once the run ends. *)

type span = {
  id : int;
  name : string;
  job : int;
  parent : int;  (** -1 for a job's root span *)
  t0 : float;
  t1 : float;
}

let enabled = ref false
let recorded : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let current_job = ref 0
let labels : (int, string) Hashtbl.t = Hashtbl.create 64

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let job = !current_job in
    stack := id :: !stack;
    let t0 = Common.now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Common.now () in
        stack := List.tl !stack;
        recorded := { id; name; job; parent; t0; t1 } :: !recorded)
      f
  end

(* Every job gets a fresh identifier, its label, and a root span named
   "job"; the root's self time is the time no layer span accounts for. *)
let job label f =
  incr current_job;
  Hashtbl.replace labels !current_job label;
  span "job" f

let label job = Option.value ~default:"?" (Hashtbl.find_opt labels job)

let reset () =
  recorded := [];
  stack := [];
  next_id := 0;
  Hashtbl.reset labels

(* Self time and call count per span name, summed over all jobs or, with
   [~job], over one job. A span's self time is its duration minus the
   durations of its direct children (children nest strictly, on one
   domain). *)
let self_times ?job () =
  let children = Hashtbl.create 256 in
  let inner id = Option.value ~default:0.0 (Hashtbl.find_opt children id) in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent (s.t1 -. s.t0 +. inner s.parent))
    !recorded;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      if Option.fold ~none:true ~some:(( = ) s.job) job then begin
        let total, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt by_name s.name) in
        Hashtbl.replace by_name s.name (total +. (s.t1 -. s.t0 -. inner s.id), n + 1)
      end)
    !recorded;
  by_name

let self_s by_name name =
  match Hashtbl.find_opt by_name name with Some (t, _) -> t | None -> 0.0

let calls by_name name =
  match Hashtbl.find_opt by_name name with Some (_, n) -> n | None -> 0

let job_ids () = List.sort_uniq compare (List.map (fun s -> s.job) !recorded)

(* The summed duration of all job root spans: the traced end-to-end time. *)
let jobs_s () =
  List.fold_left (fun acc s -> if s.parent < 0 then acc +. (s.t1 -. s.t0) else acc) 0.0
    !recorded

(* One JSON object per span, in start order. *)
let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"name\": %S, \"job\": %d, \"label\": %S, \"parent\": %d, \
         \"start\": %.6f, \"end\": %.6f}\n"
        s.id s.name s.job (label s.job) s.parent s.t0 s.t1)
    (List.sort (fun a b -> compare a.id b.id) !recorded);
  close_out oc
