(* serve: a `fastflip serve` daemon (default pool, telemetry on) and a
   closed loop of two client connections, each sending its next request
   only after the previous reply. Set-up starts the daemon and sends one
   default query per (benchmark, version) source, so the store holds every
   section and the warm cache all 15 analyses. A pass is a seeded batch
   of 375 requests: 355 warm (ε = 0, a drawn target), 15 store-covered
   (each source once, each with an ε never used before) and 5
   injection-bound (each V_none source once, each with a 4-bit subset
   never used before): a 94.7 / 4.0 / 1.3 % mix. *)

open Common
module Protocol = Ff_serve.Protocol
module Client = Ff_serve.Client
module Report = Ff_serve.Report
module Engine = Ff_serve.Engine
module Store = Fastflip.Store
module Frontend = Ff_lang.Frontend

type kind = Warm | Covered | Injection

let kind_name = function
  | Warm -> "warm"
  | Covered -> "covered"
  | Injection -> "injection"

type request = { kind : kind; src : int; query : Protocol.query }

type answer = {
  req : request;
  latency : float;
  response : (string, string) Stdlib.result;  (** report digest, or the failure *)
}

let targets = [| 0.5; 0.7; 0.8; 0.9; 0.95; 0.99 |]

(* The 15 sources, registry order, versions in order. *)
let sources =
  Array.of_list
    (List.concat_map
       (fun (b : Defs.t) -> List.map (fun v -> (b, v)) Defs.all_versions)
       Registry.all)

let source i =
  let (b : Defs.t), v = sources.(i) in
  b.Defs.source v

let label i =
  let (b : Defs.t), v = sources.(i) in
  b.Defs.name ^ "/" ^ Defs.version_name v

let v_none =
  List.init (Array.length sources) Fun.id
  |> List.filter (fun i -> snd sources.(i) = Defs.V_none)

(* --- the seeded request schedule ------------------------------------------ *)

type schedule = {
  rng : Rng.t;
  epsilons : (float, unit) Hashtbl.t;
  bit_sets : (int list, unit) Hashtbl.t;
}

let schedule seed =
  {
    rng = Rng.create (Int64.of_int seed);
    epsilons = Hashtbl.create 64;
    bit_sets = Hashtbl.create 64;
  }

(* Draws until [draw] gives a value [seen] has not had yet. *)
let rec fresh seen draw =
  let v = draw () in
  if Hashtbl.mem seen v then fresh seen draw
  else begin
    Hashtbl.add seen v ();
    v
  end

let fresh_epsilon s = fresh s.epsilons (fun () -> 0.001 +. Rng.float s.rng 0.009)

let fresh_bits s =
  let rec draw acc =
    if List.length acc = 4 then List.sort compare acc
    else
      let b = Rng.int s.rng 64 in
      draw (if List.mem b acc then acc else b :: acc)
  in
  fresh s.bit_sets (fun () -> draw [])

let warm_per_pass = 355

(* One pass: every source once store-covered, every V_none source once
   injection-bound, and 355 warm requests laid out as shuffled rounds over
   all sources. The 20 cold requests are spread evenly between the warm
   ones, so every warm entry is hit again long before enough new entries
   arrive to push it out of the daemon's 32-entry LRU cache. *)
let batch s =
  let n = Array.length sources in
  let query ?(q_epsilon = 0.0) ?(q_bits = []) () =
    { Protocol.default_query with q_target = Rng.choose s.rng targets; q_epsilon; q_bits }
  in
  let round () = shuffled s.rng (List.init n Fun.id) in
  let warm =
    List.concat (List.init (warm_per_pass / n) (fun _ -> round ()))
    @ List.filteri (fun i _ -> i < warm_per_pass mod n) (round ())
    |> List.map (fun src -> { kind = Warm; src; query = query () })
  in
  let covered =
    List.init n (fun src ->
        { kind = Covered; src; query = query ~q_epsilon:(fresh_epsilon s) () })
  in
  let injection =
    List.map
      (fun src -> { kind = Injection; src; query = query ~q_bits:(fresh_bits s) () })
      v_none
  in
  let cold = shuffled s.rng (covered @ injection) in
  let k = List.length cold in
  (* cold request j goes after the ((j + 1) * warm / (k + 1))-th warm one *)
  let after = Hashtbl.create k in
  List.iteri (fun j c -> Hashtbl.add after ((j + 1) * warm_per_pass / (k + 1)) c) cold;
  List.concat
    (List.mapi
       (fun i w ->
         match Hashtbl.find_opt after (i + 1) with Some c -> [ w; c ] | None -> [ w ])
       warm)

(* --- the daemon ----------------------------------------------------------- *)

let analyze_request src query = Protocol.Analyze { source = source src; query }

let exchange fd req =
  match Client.exchange fd req with
  | Ok (Protocol.Report r) -> Ok r
  | Ok (Protocol.Error e) -> Error ("daemon error: " ^ e)
  | Ok _ -> Error "unexpected response"
  | Error e -> Error e
  | exception e -> Error (Printexc.to_string e)

type daemon = { pid : int; socket : string }

let rec wait_ready d deadline =
  match Client.request ~socket:d.socket Protocol.Ping with
  | Ok Protocol.Pong -> ()
  | _ ->
    (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ -> ()
    | _ -> failwith "fastflip serve exited during start-up");
    if now () > deadline then failwith "fastflip serve did not answer a ping in 60 s";
    Unix.sleepf 0.01;
    wait_ready d deadline

(* Asks the daemon to shut down and waits for it; kills it after 20 s. *)
let stop d =
  ignore (Client.request ~socket:d.socket Protocol.Shutdown);
  let deadline = now () +. 20.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.02;
      wait ()
    | 0, _ ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

let start ~cli =
  (* A relative socket path keeps clear of the 108-byte limit on Unix
     socket names, wherever the checkout lives. *)
  let rel = Filename.concat ".perfbench" (Filename.basename (Lazy.force scratch)) in
  let socket = Filename.concat rel "serve.sock" in
  let log =
    Unix.openfile (scratch_path "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let env =
    Unix.environment () |> Array.to_list
    |> List.filter (fun kv -> not (String.starts_with ~prefix:"FF_" kv))
    |> List.cons "FF_DOMAINS=2" |> Array.of_list
  in
  let argv = [| cli; "serve"; socket; "--metrics"; Filename.concat rel "daemon.json" |] in
  let pid = Unix.create_process_env cli argv env Unix.stdin log log in
  Unix.close log;
  let d = { pid; socket } in
  at_exit (fun () -> try stop d with _ -> ());
  wait_ready d (now () +. 60.0);
  d

(* Set-up: start the daemon and send the default query for every source,
   in order, on one connection. Returns the warm-up report digests. *)
let warm_up ~cli =
  let d = start ~cli in
  let replies =
    Client.with_connection ~socket:d.socket (fun fd ->
        List.init (Array.length sources) (fun src ->
            exchange fd (analyze_request src Protocol.default_query)
            |> Result.map Digest.string))
  in
  (d, replies)

(* --- the closed loop ------------------------------------------------------ *)

type pass = { wall : float; answers : answer list }

let run_pass d requests =
  let requests = Array.of_list requests in
  let n = Array.length requests in
  let answers = Array.make n None in
  let next = ref 0 and mu = Mutex.create () in
  let take () =
    Mutex.lock mu;
    let i = !next in
    incr next;
    Mutex.unlock mu;
    i
  in
  let client () =
    let rec loop fd =
      let i = take () in
      if i < n then begin
        let req = requests.(i) in
        let t0 = now () in
        let r = exchange fd (analyze_request req.src req.query) in
        let response = Result.map Digest.string r in
        answers.(i) <- Some { req; latency = now () -. t0; response };
        loop fd
      end
    in
    try Client.with_connection ~socket:d.socket loop
    with e ->
      (* A dead connection fails every request it has not sent. *)
      let rec drain () =
        let i = take () in
        if i < n then begin
          let response = Error (Printexc.to_string e) in
          answers.(i) <- Some { req = requests.(i); latency = 0.0; response };
          drain ()
        end
      in
      drain ()
  in
  let t0 = now () in
  List.iter Thread.join (List.init 2 (fun _ -> Thread.create client ()));
  { wall = now () -. t0; answers = Array.to_list (Array.map Option.get answers) }

(* At least three passes, then more while another still fits in
   [seconds]: a pass takes ~7 s, and the host's speed drifts on a scale of
   ~10 s, so fewer passes leave [wall_s] at the mercy of one slow spell.
   Also returns the daemon's peak RSS right after the second pass, which
   does not depend on how many passes fit in the run. *)
let timed_passes d s ~seconds =
  let start = now () and rss = ref 0.0 in
  let rec loop i acc =
    let p = run_pass d (batch s) in
    if i = 1 then rss := peak_rss_mb ~pid:(string_of_int d.pid) ();
    if i >= 2 && now () -. start +. p.wall > seconds then List.rev (p :: acc)
    else loop (i + 1) (p :: acc)
  in
  let passes = loop 0 [] in
  (passes, !rss)

(* --- daemon telemetry ----------------------------------------------------- *)

let stats d =
  match Client.request ~socket:d.socket Protocol.Stats with
  | Ok (Protocol.Stats_json j) -> j
  | _ -> ""

(* The text after the first [key] in the daemon's telemetry JSON
   (Telemetry.to_json). *)
let after_key json key =
  let n = String.length key and len = String.length json in
  let rec find i =
    if i + n > len then None
    else if String.sub json i n = key then Some (String.sub json (i + n) (len - i - n))
    else find (i + 1)
  in
  find 0

let counter json name =
  match after_key json (Printf.sprintf "\"%s\": " name) with
  | Some rest -> Scanf.sscanf rest "%d" Fun.id
  | None -> 0

(* A histogram's (count, sum). *)
let histogram json name =
  match after_key json (Printf.sprintf "\"%s\": { \"count\": " name) with
  | Some rest -> Scanf.sscanf rest "%d, \"sum\": %d" (fun c s -> (c, s))
  | None -> (0, 0)

(* --- output checks -------------------------------------------------------- *)

(* Every reply must be byte-identical to Report.analysis of a one-shot
   analysis: warm replies to the analysis the warm-up computed (rebuilt
   here with a store fed in the same order), store-covered replies to its
   revaluation at the request's ε with every section reused, and
   injection-bound replies to an analysis against an empty store. *)
type reference = { base : Pipeline.analysis array; programs : Ff_ir.Program.t array }

let config_of (q : Protocol.query) =
  Engine.config_of ~model:q.Protocol.q_model ~bits:q.Protocol.q_bits
    ~samples:q.Protocol.q_samples ~epsilon:q.Protocol.q_epsilon ~prove:q.Protocol.q_prove
    ()

let reference pool =
  let store = Store.create () and config = config_of Protocol.default_query in
  let programs =
    Array.init (Array.length sources) (fun i -> Frontend.compile_exn (source i))
  in
  { base = Array.map (Pipeline.analyze ~store ~pool config) programs; programs }

let expected_analysis ~pool r (req : request) =
  let q = req.query in
  match req.kind with
  | Warm -> r.base.(req.src)
  | Covered ->
    let a = Pipeline.revaluate r.base.(req.src) ~epsilon:q.Protocol.q_epsilon in
    {
      a with
      Pipeline.sections_reused = Array.length a.Pipeline.sections;
      sections_analyzed = 0;
      work = 0;
    }
  | Injection ->
    Pipeline.analyze ~store:(Store.create ()) ~pool (config_of q) r.programs.(req.src)

(* Returns how many replies failed their check. *)
let check_answers ~pool r answers =
  let memo = Hashtbl.create 64 in
  let expected (req : request) what =
    match Hashtbl.find_opt memo req with
    | Some d -> d
    | None ->
      let a = expected_analysis ~pool r req in
      let target = req.query.Protocol.q_target in
      Checks.selection ~what a.Pipeline.valuation ~target (Pipeline.select a ~target);
      let d = Digest.string (Report.analysis ~target a) in
      Hashtbl.replace memo req d;
      d
  in
  List.fold_left
    (fun mismatched a ->
      let q = a.req.query in
      let what =
        Printf.sprintf "%s %s target %.2f eps %g bits [%s]" (kind_name a.req.kind)
          (label a.req.src) q.Protocol.q_target q.Protocol.q_epsilon
          (String.concat "," (List.map string_of_int q.Protocol.q_bits))
      in
      match a.response with
      | Ok d when d = expected a.req what -> mismatched
      | Ok _ ->
        check false "%s: reply differs from the one-shot report" what;
        mismatched + 1
      | Error e ->
        check false "%s: %s" what e;
        mismatched)
    0 answers

let check_warm_up r replies =
  List.iteri
    (fun src reply ->
      let target = Protocol.default_query.Protocol.q_target in
      let expected = Digest.string (Report.analysis ~target r.base.(src)) in
      match reply with
      | Ok d ->
        check (d = expected) "warm-up %s: reply differs from the one-shot report"
          (label src)
      | Error e -> check false "warm-up %s: %s" (label src) e)
    replies

let errors answers =
  List.length (List.filter (fun a -> Result.is_error a.response) answers)

let latencies ?kind answers =
  List.filter_map
    (fun a ->
      let wanted = Option.fold ~none:true ~some:(( = ) a.req.kind) kind in
      if wanted && Result.is_ok a.response then Some a.latency else None)
    answers

(* --- the traced run's phase split ----------------------------------------- *)

(* The transport floor: round trips of Ping on one connection. *)
let pings d n =
  Client.with_connection ~socket:d.socket (fun fd ->
      List.init n (fun _ ->
          let t0 = now () in
          ignore (Client.exchange fd Protocol.Ping);
          now () -. t0))

(* A warm hit's phases, replayed in this process on the same sources and
   targets: compile, knapsack selection, report render. Each replay
   returns the rendered report's size. *)
let phase_split r answers =
  List.filter_map
    (fun a ->
      let src = a.req.src and target = a.req.query.Protocol.q_target in
      let base = r.base.(src) in
      let replay () =
        Trace.job ("warm " ^ label src) (fun () ->
            ignore (Trace.span "frontend" (fun () -> Frontend.compile_exn (source src)));
            let select () = Pipeline.select base ~target in
            ignore (Trace.span "knapsack.select" select);
            String.length (Trace.span "report" (fun () -> Report.analysis ~target base)))
      in
      if a.req.kind = Warm then Some replay else None)
    answers

(* --- the workload --------------------------------------------------------- *)

let run ~cli ~seed ~seconds ~traced =
  let (d, warm_replies), setup_s = timed (fun () -> warm_up ~cli) in
  summary "setup" "s" ~scale:1.0 [ setup_s ];
  Fun.protect ~finally:(fun () -> stop d) @@ fun () ->
  let before = stats d in
  let passes, rss = timed_passes d (schedule seed) ~seconds in
  let after = stats d in
  let answers = List.concat_map (fun p -> p.answers) passes in
  let walls = List.map (fun p -> p.wall) passes in
  let n = List.length answers and total_wall = List.fold_left ( +. ) 0.0 walls in
  say "passes: %d of %d requests" (List.length passes) (n / List.length passes);
  summary "wall per pass" "s" ~scale:1.0 walls;
  summary "request latency" "ms" ~scale:1000.0 (latencies answers);
  List.iter
    (fun k ->
      summary (kind_name k ^ " latency") "ms" ~scale:1000.0 (latencies ~kind:k answers))
    [ Warm; Covered; Injection ];
  say "  %-28s %.3f 1/s  (%d requests in %.3f s)" "throughput"
    (float_of_int n /. total_wall) n total_wall;
  let delta name = counter after name - counter before name in
  let share name = ratio (delta name) n in
  say "  %-28s warm %.4f  covered %.4f  injection %.4f  (daemon counters)" "realized mix"
    (share "serve.warm_hits") (share "serve.fast_path") (share "serve.slow_path");
  Pool.with_pool ~domains:2 @@ fun pool ->
  let r = reference pool in
  check_warm_up r warm_replies;
  let failed = errors answers + check_answers ~pool r answers in
  say "  %-28s %d of %d requests (%.6f)" "failed_ratio" failed n (ratio failed n);
  if not traced then
    {
      attempted = n;
      failed;
      metrics =
        [
          metric "setup_s" "s" setup_s;
          metric "wall_s" "s" (median walls);
          metric "peak_rss_mb" "MB" rss;
        ];
    }
  else begin
    let pings = pings d 200 in
    (* The phase split replays the first pass's warm requests three times:
       to warm up, untraced, and traced; the last two give the overhead. *)
    let replay = phase_split r (List.hd passes).answers in
    let run_replay () = List.fold_left (fun acc f -> acc + f ()) 0 replay in
    ignore (run_replay ());
    let _, wall = timed run_replay in
    Trace.reset ();
    Trace.enabled := true;
    let bytes, traced_wall = timed run_replay in
    Trace.enabled := false;
    Ledger.write_trace "serve" seed;
    let self = Trace.self_times () in
    let per_hit name =
      1000.0 *. Trace.self_s self name /. float_of_int (List.length replay)
    in
    let compile = per_hit "frontend" and select = per_hit "knapsack.select" in
    let render = per_hit "report" in
    (* A warm hit's ledger, in means: the client's latency is the transport
       floor (Ping), the wait before the daemon's handler runs, and the
       handler's own time (its warm-latency histogram), which compile,
       select and render should account for. *)
    let warm = latencies ~kind:Warm answers in
    let client = 1000.0 *. Stats.mean warm and ping = 1000.0 *. Stats.mean pings in
    let server =
      let c0, s0 = histogram before "serve.warm_latency_us" in
      let c1, s1 = histogram after "serve.warm_latency_us" in
      ratio (s1 - s0) (c1 - c0) /. 1000.0
    in
    let unattributed = server -. compile -. select -. render in
    let metrics =
      Ledger.layer_metrics ~report_bytes:bytes ~wall ~traced_wall
        ~extra:
          [
            ("failed_ratio", ratio failed n);
            ("serve.warm_p50_ms", 1000.0 *. percentile 50.0 warm);
            ("serve.warm_p95_ms", 1000.0 *. percentile 95.0 warm);
            ("serve.covered_p50_ms", 1000.0 *. median (latencies ~kind:Covered answers));
            ("serve.throughput_rps", float_of_int n /. total_wall);
            ("serve.ping_ms", ping);
            ("serve.queue_ms", client -. ping -. server);
            ("serve.server_warm_ms", server);
            ("serve.compile_ms", compile);
            ("serve.select_ms", select);
            ("serve.render_ms", render);
            ("serve.injection_ms", 1000.0 *. median (latencies ~kind:Injection answers));
            ("serve.warm_share", share "serve.warm_hits");
            ("serve.covered_share", share "serve.fast_path");
            ("serve.injection_share", share "serve.slow_path");
            ("serve.coalesced", float_of_int (delta "serve.coalesced"));
            ("serve.errors", float_of_int (delta "serve.errors"));
            ( "ledger.unattributed_share",
              if client = 0.0 then 0.0 else unattributed /. client );
          ]
        ()
    in
    Ledger.print metrics;
    { attempted = n; failed; metrics }
  end
