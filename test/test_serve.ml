(* Tests for the serve daemon: protocol codec roundtrips, frame fuzzing
   (a hostile or broken client must never crash the daemon or corrupt its
   warm state), the warm cache (a repeat request re-runs nothing), and
   the store-covered fast path. *)

module Protocol = Ff_serve.Protocol
module Engine = Ff_serve.Engine
module Report = Ff_serve.Report
module Wire = Fastflip.Wire
module Hashing = Ff_support.Hashing
module Telemetry = Ff_support.Telemetry

let source =
  {|
buffer xs : float[4] = { 1.0, 2.0, 3.0, 4.0 };
output buffer ys : float[4] = zeros;

kernel scale(in xs: float[], out ys: float[]) {
  for i in 0..4 {
    ys[i] = xs[i] * 2.0;
  }
}

schedule {
  call scale(xs, ys);
}
|}

let quick_query =
  {
    Protocol.default_query with
    Protocol.q_bits = [ 2; 40; 63 ];
    q_samples = 30;
  }

(* --- pure codecs ---------------------------------------------------------- *)

let roundtrip_request req =
  match Protocol.decode_request (Protocol.encode_request req) with
  | Ok req' -> Alcotest.(check bool) "request survives" true (req = req')
  | Error msg -> Alcotest.failf "request did not decode: %s" msg

let roundtrip_response resp =
  match Protocol.decode_response (Protocol.encode_response resp) with
  | Ok resp' -> Alcotest.(check bool) "response survives" true (resp = resp')
  | Error msg -> Alcotest.failf "response did not decode: %s" msg

let test_codec_roundtrips () =
  List.iter roundtrip_request
    [
      Protocol.Ping;
      Protocol.Stats;
      Protocol.Shutdown;
      Protocol.Analyze { source; query = Protocol.default_query };
      Protocol.Analyze
        {
          source = "";
          query =
            {
              Protocol.q_target = 0.0;
              q_bits = [ 0; 63 ];
              q_samples = 0;
              q_epsilon = 1e-9;
              q_prove = false;
              q_model = Ff_inject.Fault_model.Skip;
            };
        };
    ];
  List.iter roundtrip_response
    [
      Protocol.Pong;
      Protocol.Bye;
      Protocol.Report "";
      Protocol.Report (String.make 4096 'x');
      Protocol.Stats_json "{}";
      Protocol.Error "compile failed";
    ]

let expect_decode_error what = function
  | Ok _ -> Alcotest.failf "%s unexpectedly decoded" what
  | Error _ -> ()

let test_codec_rejects () =
  expect_decode_error "empty payload" (Protocol.decode_request "");
  expect_decode_error "unknown tag" (Protocol.decode_request "\xff\xff\xff\xff");
  expect_decode_error "trailing bytes"
    (Protocol.decode_request (Protocol.encode_request Protocol.Ping ^ "z"));
  expect_decode_error "truncated analyze"
    (Protocol.decode_request
       (let full = Protocol.encode_request (Protocol.Analyze { source; query = quick_query }) in
        String.sub full 0 (String.length full - 3)));
  expect_decode_error "empty payload" (Protocol.decode_response "");
  expect_decode_error "trailing bytes"
    (Protocol.decode_response (Protocol.encode_response Protocol.Bye ^ "z"))

(* --- frame transport fuzz ------------------------------------------------- *)

(* Feed exactly [bytes] to recv_frame through a pipe (write end closed, so
   the reader sees a clean EOF after the last byte). *)
let recv_of bytes =
  let r, w = Unix.pipe () in
  let n = Unix.write_substring w bytes 0 (String.length bytes) in
  Alcotest.(check int) "wrote the whole fuzz input" (String.length bytes) n;
  Unix.close w;
  Fun.protect ~finally:(fun () -> Unix.close r) (fun () -> Protocol.recv_frame r)

let check_frame = function
  | Protocol.Frame p -> `Frame p
  | Protocol.Closed -> `Closed
  | Protocol.Malformed _ -> `Malformed

(* A header whose own CRC is valid, so only the declared length can be the
   lie — the reader must reject it before allocating. *)
let crafted_header ~len =
  let add64 b v =
    for i = 0 to 7 do
      Buffer.add_char b
        (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL)))
    done
  in
  let b = Buffer.create 28 in
  Buffer.add_string b "FRC2";
  add64 b (Int64.of_int len);
  add64 b 0L;
  let head = Buffer.sub b 0 20 in
  add64 b (Int64.of_int (Hashing.crc32 head));
  Buffer.contents b

let test_frame_fuzz () =
  let payload = Protocol.encode_request (Protocol.Analyze { source; query = quick_query }) in
  let framed = Wire.frame payload in
  (* The well-formed frame decodes. *)
  (match recv_of framed with
  | Protocol.Frame p -> Alcotest.(check string) "payload survives framing" payload p
  | Protocol.Closed | Protocol.Malformed _ -> Alcotest.fail "valid frame rejected");
  (* Clean EOF at a frame boundary. *)
  Alcotest.(check bool) "empty stream is Closed" true (check_frame (recv_of "") = `Closed);
  (* Every possible truncation is Malformed — mid-header, mid-payload,
     boundary — and never a crash or a Frame. *)
  for cut = 1 to String.length framed - 1 do
    match check_frame (recv_of (String.sub framed 0 cut)) with
    | `Malformed -> ()
    | `Closed -> Alcotest.failf "truncation at %d read as clean EOF" cut
    | `Frame _ -> Alcotest.failf "truncation at %d produced a frame" cut
  done;
  (* Garbage where the marker should be. *)
  Alcotest.(check bool) "garbage marker" true
    (check_frame (recv_of (String.make 64 'Z')) = `Malformed);
  (* A flipped payload byte fails the payload CRC. *)
  let corrupt = Bytes.of_string framed in
  let last = Bytes.length corrupt - 1 in
  Bytes.set corrupt last (Char.chr (Char.code (Bytes.get corrupt last) lxor 1));
  Alcotest.(check bool) "payload corruption" true
    (check_frame (recv_of (Bytes.to_string corrupt)) = `Malformed);
  (* A flipped length byte fails the header CRC before the length is
     trusted. *)
  let bad_len = Bytes.of_string framed in
  Bytes.set bad_len 5 (Char.chr (Char.code (Bytes.get bad_len 5) lxor 0x40));
  Alcotest.(check bool) "header corruption" true
    (check_frame (recv_of (Bytes.to_string bad_len)) = `Malformed);
  (* An oversized length with a *valid* header CRC must be rejected by the
     bound, not attempted: recv_frame returns promptly instead of trying
     to read (or allocate) gigabytes. *)
  Alcotest.(check bool) "oversized length" true
    (check_frame (recv_of (crafted_header ~len:(Protocol.max_payload + 1))) = `Malformed);
  Alcotest.(check bool) "negative length" true
    (check_frame (recv_of (crafted_header ~len:(-1))) = `Malformed)

(* --- live daemon: a hostile client never corrupts warm state -------------- *)

let temp_socket () =
  let path = Filename.temp_file "ff_serve_test" ".sock" in
  Sys.remove path;
  path

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

let test_server_survives_garbage () =
  let socket = temp_socket () in
  let server = Thread.create (fun () -> Ff_serve.Server.run ~socket ()) () in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while not (Sys.file_exists socket) && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  Alcotest.(check bool) "daemon came up" true (Sys.file_exists socket);
  (* Prime the warm cache with a good request. *)
  let req = Protocol.Analyze { source; query = quick_query } in
  let first =
    match Ff_serve.Client.request ~socket req with
    | Ok (Protocol.Report text) -> text
    | Ok _ -> Alcotest.fail "expected a report"
    | Error msg -> Alcotest.failf "first request failed: %s" msg
  in
  (* A connection that speaks garbage gets an error and is dropped. *)
  let fd = connect socket in
  let garbage = String.make 64 '!' in
  ignore (Unix.write_substring fd garbage 0 (String.length garbage));
  (match Protocol.recv_response fd with
  | Ok (Protocol.Error _) -> ()
  | Ok _ -> Alcotest.fail "garbage earned a non-error response"
  | Error `Closed -> ()
  | Error (`Malformed msg) -> Alcotest.failf "daemon answered garbage with garbage: %s" msg);
  (match Protocol.recv_response fd with
  | Error `Closed -> ()
  | Ok _ | Error (`Malformed _) ->
    Alcotest.fail "daemon kept talking to a hostile connection");
  Unix.close fd;
  (* A truncated frame (valid header, missing payload) is also contained. *)
  let fd = connect socket in
  let framed = Wire.frame (Protocol.encode_request Protocol.Ping) in
  ignore (Unix.write_substring fd framed 0 (String.length framed - 2));
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  (match Protocol.recv_response fd with
  | Ok (Protocol.Error _) | Error `Closed -> ()
  | Ok _ -> Alcotest.fail "truncated frame earned a non-error response"
  | Error (`Malformed msg) -> Alcotest.failf "daemon mangled its error reply: %s" msg);
  Unix.close fd;
  (* The daemon is still healthy and its warm state intact: the same
     request comes back byte-identical. *)
  (match Ff_serve.Client.request ~socket req with
  | Ok (Protocol.Report text) ->
    Alcotest.(check string) "warm state survived the hostile client" first text
  | Ok _ -> Alcotest.fail "expected a report"
  | Error msg -> Alcotest.failf "post-garbage request failed: %s" msg);
  (match Ff_serve.Client.request ~socket Protocol.Shutdown with
  | Ok Protocol.Bye -> ()
  | Ok _ | Error _ -> Alcotest.fail "shutdown was not acknowledged");
  Thread.join server;
  Alcotest.(check bool) "socket removed on shutdown" false (Sys.file_exists socket)

(* --- warm cache and fast path --------------------------------------------- *)

let c_injections = Telemetry.counter "campaign.injections"
let c_pipeline_runs = Telemetry.counter "pipeline.runs"
let c_warm_hits = Telemetry.counter "serve.warm_hits"
let c_fast_path = Telemetry.counter "serve.fast_path"
let c_slow_path = Telemetry.counter "serve.slow_path"
let c_compiles = Telemetry.counter "serve.compiles"

let with_telemetry f =
  Telemetry.reset ();
  Telemetry.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.set_enabled false;
      Telemetry.reset ())
    f

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.equal (String.sub haystack i nl) needle || go (i + 1)) in
  go 0

let report_of engine req =
  match Engine.handle engine req with
  | Protocol.Report text -> text
  | Protocol.Error msg -> Alcotest.failf "analyze failed: %s" msg
  | _ -> Alcotest.fail "expected a report"

let test_warm_cache_runs_nothing () =
  with_telemetry @@ fun () ->
  let engine = Engine.create () in
  let req = Protocol.Analyze { source; query = quick_query } in
  let first = report_of engine req in
  let injections = Telemetry.value c_injections in
  let runs = Telemetry.value c_pipeline_runs in
  Alcotest.(check bool) "cold request injected" true (injections > 0);
  Alcotest.(check int) "one pipeline run" 1 runs;
  Alcotest.(check int) "cold request compiled once" 1 (Telemetry.value c_compiles);
  let second = report_of engine req in
  Alcotest.(check string) "warm response byte-identical" first second;
  Alcotest.(check int) "served from the warm cache" 1 (Telemetry.value c_warm_hits);
  Alcotest.(check int) "zero new compiles" 1 (Telemetry.value c_compiles);
  (match Engine.handle engine Protocol.Stats with
  | Protocol.Stats_json json ->
    List.iter
      (fun name ->
        Alcotest.(check bool) (name ^ " in Stats") true
          (contains json ("\"" ^ name ^ "\"")))
      [ "serve.compiles"; "serve.render_us" ]
  | _ -> Alcotest.fail "expected Stats_json");
  Alcotest.(check int) "zero new injections" injections (Telemetry.value c_injections);
  Alcotest.(check int) "zero new pipeline runs" runs (Telemetry.value c_pipeline_runs)

let test_fast_path_skips_injections () =
  with_telemetry @@ fun () ->
  (* Capacity 0: nothing stays warm, so a repeat request must come from
     the store — exercising the admission probe's fast path. *)
  let engine = Engine.create ~cache_capacity:0 () in
  let req = Protocol.Analyze { source; query = quick_query } in
  let first = report_of engine req in
  Alcotest.(check int) "cold request took the slow lane" 1 (Telemetry.value c_slow_path);
  let injections = Telemetry.value c_injections in
  let second = report_of engine req in
  (* The reuse accounting honestly differs (0/1 cold vs 1/1 from the
     store — the one-shot CLI against a persistent store prints the
     same), but the analysis itself must not. *)
  let analysis_part report =
    match String.index_opt report '\n' with
    | Some i -> String.sub report (i + 1) (String.length report - i - 1)
    | None -> report
  in
  Alcotest.(check bool) "cold request reused nothing" true
    (String.length first >= 38
    && String.equal (String.sub first 0 38) "sections reused from the store: 0/1\nin");
  Alcotest.(check bool) "repeat served from the store" true
    (String.length second >= 38
    && String.equal (String.sub second 0 38) "sections reused from the store: 1/1\nin");
  Alcotest.(check string) "analysis byte-identical past the reuse header"
    (analysis_part (analysis_part first))
    (analysis_part (analysis_part second));
  Alcotest.(check int) "repeat took the fast path" 1 (Telemetry.value c_fast_path);
  Alcotest.(check int) "zero new injections" injections (Telemetry.value c_injections);
  Alcotest.(check int) "both requests ran the pipeline" 2
    (Telemetry.value c_pipeline_runs)

let test_compile_error_is_not_cached () =
  with_telemetry @@ fun () ->
  let engine = Engine.create () in
  let good = Protocol.Analyze { source; query = quick_query } in
  ignore (report_of engine good);
  let cached = Engine.cached engine in
  let broken = "kernel oops(" in
  let expected =
    match Ff_lang.Frontend.compile broken with
    | Ok _ -> Alcotest.fail "broken source compiled"
    | Error e -> Format.asprintf "%a" Ff_lang.Frontend.pp_error e
  in
  for _ = 1 to 2 do
    let req = Protocol.Analyze { source = broken; query = quick_query } in
    match Engine.handle engine req with
    | Protocol.Error msg -> Alcotest.(check string) "compile error text" expected msg
    | _ -> Alcotest.fail "broken source earned a report"
  done;
  Alcotest.(check int) "errors are not cached" cached (Engine.cached engine);
  Alcotest.(check int) "each failing request compiled again" 3
    (Telemetry.value c_compiles);
  (* A following valid request still succeeds, cold and then warm. *)
  let query = { quick_query with Protocol.q_samples = 31 } in
  let other = Protocol.Analyze { source; query } in
  let cold = report_of engine other in
  Alcotest.(check string) "warm after an error" cold (report_of engine other);
  Alcotest.(check int) "one new entry" (cached + 1) (Engine.cached engine)

(* The knapsack targets of the benchmark's serve workload. *)
let serve_targets = [ 0.5; 0.7; 0.8; 0.9; 0.95; 0.99 ]

let one_shot () =
  let program = Result.get_ok (Ff_lang.Frontend.compile source) in
  let q = quick_query in
  Fastflip.Pipeline.analyze
    (Engine.config_of ~model:q.Protocol.q_model ~bits:q.Protocol.q_bits
       ~samples:q.Protocol.q_samples ~epsilon:q.Protocol.q_epsilon
       ~prove:q.Protocol.q_prove ())
    program

let test_report_is_body_then_selection () =
  let a = one_shot () in
  List.iter
    (fun target ->
      Alcotest.(check string)
        (Printf.sprintf "analysis = body ^ selection at %.2f" target)
        (Report.analysis ~target a)
        (Report.body a ^ Report.selection ~target a))
    (0.0 :: 1.0 :: serve_targets)

let test_warm_replies_match_one_shot () =
  let a = one_shot () in
  let engine = Engine.create () in
  List.iter
    (fun target ->
      let query = { quick_query with Protocol.q_target = target } in
      Alcotest.(check string)
        (Printf.sprintf "daemon reply = one-shot report at %.2f" target)
        (Report.analysis ~target a)
        (report_of engine (Protocol.Analyze { source; query })))
    serve_targets

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "codec roundtrips" `Quick test_codec_roundtrips;
          Alcotest.test_case "codec rejects bad payloads" `Quick test_codec_rejects;
          Alcotest.test_case "frame fuzz" `Quick test_frame_fuzz;
        ] );
      ( "server",
        [
          Alcotest.test_case "survives a hostile client" `Quick
            test_server_survives_garbage;
        ] );
      ( "engine",
        [
          Alcotest.test_case "warm cache runs nothing" `Quick
            test_warm_cache_runs_nothing;
          Alcotest.test_case "fast path skips injections" `Quick
            test_fast_path_skips_injections;
          Alcotest.test_case "compile errors are not cached" `Quick
            test_compile_error_is_not_cached;
          Alcotest.test_case "report is body then selection" `Quick
            test_report_is_body_then_selection;
          Alcotest.test_case "warm replies match the one-shot report" `Quick
            test_warm_replies_match_one_shot;
        ] );
    ]
