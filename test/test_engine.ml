(* Differential tests: the unboxed engine against the boxed oracle.

   The unboxed engine must be bit-identical to Machine.exec — same
   statuses, executed counts, buffer contents (by Value.equal, i.e. raw
   bits), and traces — on arbitrary kernels, inputs, injections, and
   burst widths, including runs that trap or exhaust their budget. The
   replay/campaign layers must then classify identically through either
   engine at any pool width. *)

open Ff_ir
open Ff_vm
module Frontend = Ff_lang.Frontend
module Pool = Ff_support.Pool
open Ff_inject

let compile src =
  match Frontend.compile src with
  | Ok p -> p
  | Error e -> Alcotest.failf "compile: %s" (Format.asprintf "%a" Frontend.pp_error e)

(* --- generators ------------------------------------------------------------ *)

let nregs = 6
let nbufs = 2 (* slot 0: float, slot 1: int *)

let all_ibinops =
  [
    Instr.Iadd; Instr.Isub; Instr.Imul; Instr.Idiv; Instr.Irem; Instr.Iand; Instr.Ior;
    Instr.Ixor; Instr.Ishl; Instr.Ilshr; Instr.Iashr; Instr.Irotl; Instr.Irotr;
    Instr.Imin; Instr.Imax;
  ]

let all_fbinops =
  [ Instr.Fadd; Instr.Fsub; Instr.Fmul; Instr.Fdiv; Instr.Fmin; Instr.Fmax; Instr.Fpow ]

let all_funops =
  [
    Instr.FFneg; Instr.FFabs; Instr.FFsqrt; Instr.FFexp; Instr.FFlog; Instr.FFsin;
    Instr.FFcos; Instr.FFfloor; Instr.FFceil;
  ]

let all_cmps = [ Instr.Ceq; Instr.Cne; Instr.Clt; Instr.Cle; Instr.Cgt; Instr.Cge ]
let all_casts = [ Instr.Itof; Instr.Ftoi; Instr.Fbits; Instr.Bitsf ]

let gen_int64 =
  QCheck2.Gen.(
    oneof
      [
        map Int64.of_int (int_range (-4) 8);
        map Int64.of_int int;
        oneofl [ Int64.min_int; Int64.max_int; 0L; -1L; 0x7ff0000000000000L ];
      ])

let gen_float =
  QCheck2.Gen.(
    oneof
      [
        map (fun v -> float_of_int v *. 0.37) (int_range (-50) 50);
        oneofl [ 0.0; -0.0; Float.nan; Float.infinity; Float.neg_infinity; 1e308; -2.5 ];
      ])

let gen_instr ~ninstrs =
  QCheck2.Gen.(
    let reg = int_range 0 (nregs - 1) in
    let label = int_range 0 ninstrs in
    let slot = int_range 0 (nbufs - 1) in
    oneof
      [
        map2 (fun d v -> Instr.Iconst (d, v)) reg gen_int64;
        map2 (fun d v -> Instr.Fconst (d, v)) reg gen_float;
        map2 (fun d s -> Instr.Mov (d, s)) reg reg;
        map3 (fun op (d, a) b -> Instr.Ibin (op, d, a, b)) (oneofl all_ibinops)
          (pair reg reg) reg;
        map3 (fun op (d, a) b -> Instr.Fbin (op, d, a, b)) (oneofl all_fbinops)
          (pair reg reg) reg;
        map3 (fun op d a -> Instr.Iun (op, d, a)) (oneofl [ Instr.Ineg; Instr.Inot ]) reg reg;
        map3 (fun op d a -> Instr.Fun1 (op, d, a)) (oneofl all_funops) reg reg;
        map3 (fun c (d, a) b -> Instr.Icmp (c, d, a, b)) (oneofl all_cmps) (pair reg reg)
          reg;
        map3 (fun c (d, a) b -> Instr.Fcmp (c, d, a, b)) (oneofl all_cmps) (pair reg reg)
          reg;
        map3 (fun c d a -> Instr.Cast (c, d, a)) (oneofl all_casts) reg reg;
        map3 (fun (d, c) a b -> Instr.Select (d, c, a, b)) (pair reg reg) reg reg;
        map3 (fun d s i -> Instr.Load (d, s, i)) reg slot reg;
        map3 (fun s i v -> Instr.Store (s, i, v)) slot reg reg;
        map (fun l -> Instr.Jmp l) label;
        map3 (fun c l1 l2 -> Instr.Br (c, l1, l2)) reg label label;
      ])

let gen_kernel =
  QCheck2.Gen.(
    int_range 1 24 >>= fun ninstrs ->
    list_repeat ninstrs (gen_instr ~ninstrs) >|= fun body ->
    {
      Kernel.name = "randk";
      params =
        [
          Kernel.Scalar ("n", Value.TInt);
          Kernel.Scalar ("x", Value.TFloat);
          Kernel.Buffer ("fb", Value.TFloat, Kernel.InOut);
          Kernel.Buffer ("ib", Value.TInt, Kernel.InOut);
        ];
      code = Array.of_list (body @ [ Instr.Halt ]);
      nregs;
    })

let gen_inputs =
  QCheck2.Gen.(
    let fbuf = list_size (int_range 1 4) (map (fun x -> Value.Float x) gen_float) in
    let ibuf = list_size (int_range 1 4) (map (fun w -> Value.Int w) gen_int64) in
    map3
      (fun n x (fb, ib) ->
        ([ Value.Int n; Value.Float x ], [| Array.of_list fb; Array.of_list ib |]))
      gen_int64 gen_float (pair fbuf ibuf))

let gen_injection =
  QCheck2.Gen.(
    map3
      (fun at_dyn op bit ->
        let operand = if op >= 3 then Machine.Odst else Machine.Osrc op in
        { Machine.at_dyn; operand; bit })
      (int_range 0 40) (int_range 0 4) (int_range 0 63))

(* --- differential runner --------------------------------------------------- *)

type outcome = {
  o_status : Machine.status;
  o_executed : int;
  o_trace : int array;
  o_buffers : Value.t array array;
  o_exn : string option;
}

let run_engine exec ~scalars ~buffers ?injection ?burst () =
  let bufs = Array.map Array.copy buffers in
  let trace = Trace.create () in
  match exec ~scalars ~buffers:bufs ?injection ?burst ~trace () with
  | (run : Machine.run) ->
    {
      o_status = run.Machine.status;
      o_executed = run.Machine.executed;
      o_trace = Trace.to_array trace;
      o_buffers = bufs;
      o_exn = None;
    }
  | exception e ->
    {
      o_status = Machine.Finished;
      o_executed = -1;
      o_trace = [||];
      o_buffers = bufs;
      o_exn = Some (Printexc.to_string e);
    }

let buffers_bit_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun ba bb ->
         Array.length ba = Array.length bb && Array.for_all2 Value.equal ba bb)
       a b

let outcomes_agree a b =
  a.o_exn = b.o_exn
  && a.o_status = b.o_status
  && a.o_executed = b.o_executed
  && a.o_trace = b.o_trace
  && buffers_bit_equal a.o_buffers b.o_buffers

let differential ?injection ?burst kernel ~scalars ~buffers ~budget =
  let decoded = Decode.of_kernel kernel in
  let boxed =
    run_engine
      (fun ~scalars ~buffers ?injection ?burst ~trace () ->
        Machine.exec kernel ~scalars ~buffers ~budget ~decoded ?injection ?burst ~trace ())
      ~scalars ~buffers ?injection ?burst ()
  in
  let unboxed =
    run_engine
      (fun ~scalars ~buffers ?injection ?burst ~trace () ->
        Unboxed.exec_values decoded ~scalars ~buffers ~budget ?injection ?burst ~trace ())
      ~scalars ~buffers ?injection ?burst ()
  in
  if not (outcomes_agree boxed unboxed) then
    QCheck2.Test.fail_reportf
      "engines diverged on %s:@.boxed:   status %a, executed %d, exn %s@.unboxed: \
       status %a, executed %d, exn %s"
      kernel.Kernel.name Machine.pp_status boxed.o_status boxed.o_executed
      (Option.value ~default:"-" boxed.o_exn)
      Machine.pp_status unboxed.o_status unboxed.o_executed
      (Option.value ~default:"-" unboxed.o_exn);
  true

(* --- properties ------------------------------------------------------------ *)

let prop_plain =
  QCheck2.Test.make ~count:400 ~name:"unboxed ≡ boxed on random kernels"
    QCheck2.Gen.(pair gen_kernel gen_inputs)
    (fun (kernel, (scalars, buffers)) ->
      differential kernel ~scalars ~buffers ~budget:256)

let prop_injected =
  QCheck2.Test.make ~count:600 ~name:"unboxed ≡ boxed under injection and bursts"
    QCheck2.Gen.(
      pair (pair gen_kernel gen_inputs) (pair gen_injection (int_range 1 70)))
    (fun ((kernel, (scalars, buffers)), (injection, burst)) ->
      differential kernel ~scalars ~buffers ~budget:256 ~injection ~burst)

(* --- directed traps -------------------------------------------------------- *)

let check_trap name kernel ~scalars ~buffers trap =
  let decoded = Decode.of_kernel kernel in
  let b1 = Array.map Array.copy buffers and b2 = Array.map Array.copy buffers in
  let r1 = Machine.exec kernel ~scalars ~buffers:b1 ~budget:1000 () in
  let r2 = Unboxed.exec_values decoded ~scalars ~buffers:b2 ~budget:1000 () in
  Alcotest.(check bool)
    (name ^ ": boxed traps")
    true
    (r1.Machine.status = Machine.Trapped trap);
  Alcotest.(check bool)
    (name ^ ": unboxed traps identically")
    true
    (r2.Machine.status = r1.Machine.status && r2.Machine.executed = r1.Machine.executed)

let test_trap_parity () =
  let oob =
    {
      Kernel.name = "oob";
      params = [ Kernel.Buffer ("b", Value.TFloat, Kernel.Out) ];
      code = [| Instr.Iconst (0, 5L); Instr.Load (1, 0, 0); Instr.Halt |];
      nregs = 2;
    }
  in
  check_trap "out of bounds" oob ~scalars:[] ~buffers:[| [| Value.Float 0.0 |] |]
    Machine.Out_of_bounds;
  let div0 =
    {
      Kernel.name = "div0";
      params = [];
      code =
        [|
          Instr.Iconst (0, 1L); Instr.Iconst (1, 0L); Instr.Ibin (Instr.Idiv, 2, 0, 1);
          Instr.Halt;
        |];
      nregs = 3;
    }
  in
  check_trap "div by zero" div0 ~scalars:[] ~buffers:[||] Machine.Div_by_zero;
  let conv =
    {
      Kernel.name = "conv";
      params = [];
      code = [| Instr.Fconst (0, Float.nan); Instr.Cast (Instr.Ftoi, 1, 0); Instr.Halt |];
      nregs = 2;
    }
  in
  check_trap "invalid conversion" conv ~scalars:[] ~buffers:[||] Machine.Invalid_conversion;
  let confused =
    {
      Kernel.name = "confused";
      params = [];
      code = [| Instr.Fbin (Instr.Fadd, 1, 0, 0); Instr.Halt |];
      nregs = 2;
    }
  in
  check_trap "type confusion" confused ~scalars:[] ~buffers:[||] Machine.Type_confusion

let test_argument_checking_parity () =
  let k =
    {
      Kernel.name = "s";
      params = [ Kernel.Scalar ("n", Value.TInt) ];
      code = [| Instr.Halt |];
      nregs = 1;
    }
  in
  let d = Decode.of_kernel k in
  Alcotest.check_raises "missing scalar"
    (Invalid_argument "Machine.exec: scalar arity mismatch") (fun () ->
      ignore (Unboxed.exec_values d ~scalars:[] ~buffers:[||] ~budget:10 ()));
  Alcotest.check_raises "wrong scalar type"
    (Invalid_argument "Machine.exec: scalar type mismatch") (fun () ->
      ignore (Unboxed.exec_values d ~scalars:[ Value.Float 1.0 ] ~buffers:[||] ~budget:10 ()))

(* --- replay and campaign parity -------------------------------------------- *)

let pipeline_src =
  {|buffer a : float[3] = { 1.0, 2.0, -0.5 };
buffer mid : float[3] = zeros;
output buffer res : float[3] = zeros;
kernel double(in a: float[], out mid: float[]) {
  for i in 0..3 { mid[i] = a[i] * 2.0; }
}
kernel inc(in mid: float[], out res: float[]) {
  for i in 0..3 { res[i] = mid[i] + 1.0; }
}
schedule {
  call double(a, mid);
  call inc(mid, res);
}|}

let test_replay_parity () =
  let g = Golden.run (compile pipeline_src) in
  let checked = ref 0 in
  Array.iter
    (fun (section : Golden.section_run) ->
      let last = section.Golden.dyn_count - 1 in
      List.iter
        (fun at_dyn ->
          List.iter
            (fun operand ->
              List.iter
                (fun bit ->
                  List.iter
                    (fun burst ->
                      let injection = Replay.Fault { Machine.at_dyn; operand; bit } in
                      let boxed =
                        Replay.run_section ~burst ~engine:Replay.Boxed g section
                          injection ~timeout_factor:5.0
                      in
                      let unboxed =
                        Replay.run_section ~burst ~engine:Replay.Unboxed g section
                          injection ~timeout_factor:5.0
                      in
                      if Stdlib.compare boxed unboxed <> 0 then
                        Alcotest.failf "section replay diverged at dyn %d bit %d burst %d"
                          at_dyn bit burst;
                      let pb =
                        Replay.run_to_end ~burst ~engine:Replay.Boxed g
                          ~from_section:section.Golden.section_index injection
                          ~timeout_factor:5.0
                      in
                      let pu =
                        Replay.run_to_end ~burst ~engine:Replay.Unboxed g
                          ~from_section:section.Golden.section_index injection
                          ~timeout_factor:5.0
                      in
                      if Stdlib.compare pb pu <> 0 then
                        Alcotest.failf "program replay diverged at dyn %d bit %d burst %d"
                          at_dyn bit burst;
                      incr checked)
                    [ 1; 2; 65 ])
                [ 0; 31; 63 ])
            [ Machine.Osrc 0; Machine.Osrc 1; Machine.Odst ])
        [ 0; last / 2; last ])
    g.Golden.sections;
  Alcotest.(check bool) "swept a real grid" true (!checked >= 100)

(* Prover off so every class actually exercises the engines under test. *)
let campaign_config =
  {
    Campaign.bits = Site.Bit_list [ 0; 21; 42; 63 ];
    timeout_factor = 5.0;
    model = Fault_model.default;
    prove = Prover.off;
  }

let test_campaign_parity_across_pools () =
  let g = Golden.run (compile pipeline_src) in
  let serial_boxed =
    Campaign.run_section ~engine:Replay.Boxed g ~section_index:0 campaign_config
  in
  List.iter
    (fun width ->
      Pool.with_pool ~domains:width @@ fun pool ->
      let unboxed =
        Campaign.run_section ~pool ~engine:Replay.Unboxed g ~section_index:0
          campaign_config
      in
      if Stdlib.compare serial_boxed unboxed <> 0 then
        Alcotest.failf "campaign diverged at pool width %d" width)
    [ 1; 4 ];
  let baseline_boxed = Campaign.run_baseline ~engine:Replay.Boxed g campaign_config in
  Pool.with_pool ~domains:4 @@ fun pool ->
  let baseline_unboxed =
    Campaign.run_baseline ~pool ~engine:Replay.Unboxed g campaign_config
  in
  Alcotest.(check bool) "baseline campaigns agree" true
    (Stdlib.compare baseline_boxed baseline_unboxed = 0)

let test_final_outcomes_classes_reuse () =
  let g = Golden.run (compile pipeline_src) in
  let campaign = Campaign.run_section g ~section_index:0 campaign_config in
  let classes = Array.map fst campaign.Campaign.s_classes in
  let fresh, fresh_work =
    Campaign.final_outcomes_for_section g ~section_index:0 campaign_config
  in
  let reused, reused_work =
    Campaign.final_outcomes_for_section ~classes g ~section_index:0 campaign_config
  in
  Alcotest.(check bool) "precomputed classes give identical outcomes" true
    (Stdlib.compare fresh reused = 0);
  Alcotest.(check int) "identical work" fresh_work reused_work

let test_workspace_reuse_is_stateless () =
  (* The domain-local scratch is reused across replays; a replay must not
     observe residue from a previous one (here: a prior injected run that
     trapped mid-section with corrupted registers and buffers). *)
  let g = Golden.run (compile pipeline_src) in
  let section = g.Golden.sections.(0) in
  let nasty = Replay.Fault { Machine.at_dyn = 2; operand = Machine.Osrc 0; bit = 62 } in
  let benign = Replay.Fault { Machine.at_dyn = 0; operand = Machine.Odst; bit = 0 } in
  let first =
    Replay.run_section ~engine:Replay.Unboxed g section benign ~timeout_factor:5.0
  in
  ignore
    (Replay.run_section ~engine:Replay.Unboxed g section nasty ~timeout_factor:5.0);
  let again =
    Replay.run_section ~engine:Replay.Unboxed g section benign ~timeout_factor:5.0
  in
  Alcotest.(check bool) "same result after scratch reuse" true
    (Stdlib.compare first again = 0)

(* --- sensitivity estimate ---------------------------------------------------- *)

module Sensitivity = Ff_sensitivity.Sensitivity
module Registry = Ff_benchmarks.Registry
module Defs = Ff_benchmarks.Defs

let check_same_estimate label (b : Sensitivity.t) (u : Sensitivity.t) =
  let ints = Alcotest.(array int) in
  Alcotest.check ints (label ^ " input buffers") b.Sensitivity.input_buffers
    u.Sensitivity.input_buffers;
  Alcotest.check ints (label ^ " output buffers") b.Sensitivity.output_buffers
    u.Sensitivity.output_buffers;
  Alcotest.(check int) (label ^ " work") b.Sensitivity.work u.Sensitivity.work;
  Alcotest.(check int) (label ^ " samples used") b.Sensitivity.samples_used
    u.Sensitivity.samples_used;
  let bits k = Array.map (Array.map Int64.bits_of_float) k in
  Alcotest.(check (array (array int64))) (label ^ " K bits") (bits b.Sensitivity.k)
    (bits u.Sensitivity.k)

let estimate_on engine ?pool ~samples g i =
  Sensitivity.estimate ~engine ?pool ~samples ~rng:(Ff_support.Rng.create 11L) g
    ~section_index:i

let test_sensitivity_parity_benchmarks () =
  List.iter
    (fun (bench : Defs.t) ->
      let g = Golden.run (compile (bench.Defs.source Defs.V_none)) in
      List.iter
        (fun width ->
          Pool.with_pool ~domains:width @@ fun pool ->
          Array.iteri
            (fun i _ ->
              let label = Printf.sprintf "%s s%d w%d" bench.Defs.name i width in
              check_same_estimate label
                (estimate_on Replay.Boxed ~pool ~samples:60 g i)
                (estimate_on Replay.Unboxed ~pool ~samples:60 g i))
            g.Golden.sections)
        [ 1; 2 ])
    Registry.all

(* The kernels test_sensitivity pins K on, through both engines: a
   perturbation that traps (K = ∞), a branch it flips, an integer
   avalanche and an inout buffer perturbed directly. *)
let test_sensitivity_parity_kernels () =
  let cases =
    [
      ( "trap",
        {|buffer a : int[1] = { 1000 };
output buffer res : float[1] = zeros;
kernel poke(in a: int[], out res: float[]) { res[a[0] - 1000] = 1.0; }
schedule { call poke(a, res); }|},
        Some infinity );
      ( "divergence",
        {|buffer a : float[1] = { 0.5 };
output buffer res : float[1] = zeros;
kernel step(in a: float[], out res: float[]) {
  if (a[0] > 0.5) { res[0] = 100.0; } else { res[0] = 0.0; }
}
schedule { call step(a, res); }|},
        None );
      ( "avalanche",
        {|buffer a : int[1] = { 1000 };
output buffer res : int[1] = zeros;
kernel mulbig(in a: int[], out res: int[]) { res[0] = a[0] * 4096; }
schedule { call mulbig(a, res); }|},
        None );
      ( "inout",
        {|output buffer acc : float[4] = { 0.1, 0.2, 0.3, 0.4 };
kernel bump(inout acc: float[]) { acc[0] = acc[0] + 1.0; }
schedule { call bump(acc); }|},
        None );
    ]
  in
  List.iter
    (fun (label, src, expect) ->
      let g = Golden.run (compile src) in
      let b = estimate_on Replay.Boxed ~samples:150 g 0 in
      let u = estimate_on Replay.Unboxed ~samples:150 g 0 in
      check_same_estimate label b u;
      Option.iter
        (fun k ->
          Alcotest.(check (float 0.0)) (label ^ " K") k u.Sensitivity.k.(0).(0))
        expect)
    cases

(* --- decode validation ----------------------------------------------------- *)

let test_decode_validation () =
  let base =
    {
      Kernel.name = "k";
      params = [];
      code = [| Instr.Halt |];
      nregs = 1;
    }
  in
  Alcotest.check_raises "empty code" (Invalid_argument "Decode.of_kernel: kernel has no code")
    (fun () -> ignore (Decode.of_kernel { base with Kernel.code = [||] }));
  Alcotest.check_raises "missing terminator"
    (Invalid_argument "Decode.of_kernel: kernel does not end with a terminator") (fun () ->
      ignore (Decode.of_kernel { base with Kernel.code = [| Instr.Iconst (0, 1L) |] }));
  Alcotest.check_raises "register out of range"
    (Invalid_argument "Decode.of_kernel: register out of range") (fun () ->
      ignore
        (Decode.of_kernel
           { base with Kernel.code = [| Instr.Iconst (7, 1L); Instr.Halt |] }));
  Alcotest.check_raises "label out of range"
    (Invalid_argument "Decode.of_kernel: label out of range") (fun () ->
      ignore (Decode.of_kernel { base with Kernel.code = [| Instr.Jmp 9; Instr.Halt |] }));
  Alcotest.check_raises "slot out of range"
    (Invalid_argument "Decode.of_kernel: buffer slot out of range") (fun () ->
      ignore
        (Decode.of_kernel
           { base with Kernel.code = [| Instr.Load (0, 3, 0); Instr.Halt |] }))

let test_decode_operand_tables () =
  let k =
    {
      Kernel.name = "ops";
      params = [ Kernel.Buffer ("b", Value.TFloat, Kernel.InOut) ];
      code =
        [|
          Instr.Iconst (0, 0L);
          Instr.Load (1, 0, 0);
          Instr.Select (2, 0, 1, 1);
          Instr.Store (0, 0, 2);
          Instr.Halt;
        |];
      nregs = 3;
    }
  in
  let d = Decode.of_kernel k in
  Alcotest.(check int) "length" 5 (Decode.length d);
  Alcotest.(check (list int)) "store srcs are [index; value]" [ 0; 2 ]
    (Array.to_list (Decode.srcs_at d 3));
  Alcotest.(check int) "select has three sources" 3 (Decode.nsrcs d 2);
  Alcotest.(check int) "store has no destination" (-1) (Decode.dst_at d 3);
  Alcotest.(check int) "halt has no operands" 0 (Decode.noperands d 4);
  Alcotest.(check int) "store operands = srcs" 2 (Decode.noperands d 3);
  Alcotest.(check int) "select operands = srcs + dst" 4 (Decode.noperands d 2)

let () =
  Alcotest.run "engine"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_plain;
          QCheck_alcotest.to_alcotest prop_injected;
          Alcotest.test_case "trap parity" `Quick test_trap_parity;
          Alcotest.test_case "argument checking parity" `Quick
            test_argument_checking_parity;
        ] );
      ( "replay",
        [
          Alcotest.test_case "replay parity sweep" `Quick test_replay_parity;
          Alcotest.test_case "campaign parity, pool widths 1 and 4" `Quick
            test_campaign_parity_across_pools;
          Alcotest.test_case "final outcomes reuse classes" `Quick
            test_final_outcomes_classes_reuse;
          Alcotest.test_case "workspace reuse is stateless" `Quick
            test_workspace_reuse_is_stateless;
        ] );
      ( "sensitivity",
        [
          Alcotest.test_case "benchmarks, pool widths 1 and 2" `Quick
            test_sensitivity_parity_benchmarks;
          Alcotest.test_case "trap, divergence, avalanche, inout" `Quick
            test_sensitivity_parity_kernels;
        ] );
      ( "decode",
        [
          Alcotest.test_case "validation" `Quick test_decode_validation;
          Alcotest.test_case "operand tables" `Quick test_decode_operand_tables;
        ] );
    ]
