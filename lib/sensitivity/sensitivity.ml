open Ff_ir
open Ff_vm
module A1 = Bigarray.Array1
module Rng = Ff_support.Rng
module Hashing = Ff_support.Hashing
module Pool = Ff_support.Pool
module Telemetry = Ff_support.Telemetry

let m_estimates = Telemetry.counter "sensitivity.estimates"
let m_samples = Telemetry.counter "sensitivity.samples"
let m_samples_used = Telemetry.counter "sensitivity.samples_used"
let m_work = Telemetry.counter "sensitivity.work"
let h_section_work = Telemetry.histogram "sensitivity.section_work"

type t = {
  section_index : int;
  input_buffers : int array;
  output_buffers : int array;
  k : float array array;
  samples_used : int;
  work : int;
}

let readable_buffers (section : Golden.section_run) =
  Array.to_list section.Golden.bindings
  |> List.filter_map (fun (idx, role) ->
         if Kernel.role_readable role then Some idx else None)
  |> List.sort_uniq compare

let writable_buffers (section : Golden.section_run) =
  Array.to_list section.Golden.bindings
  |> List.filter_map (fun (idx, role) ->
         if Kernel.role_writable role then Some idx else None)
  |> List.sort_uniq compare

(* The signed nudge of one element, shared by both engines so they draw
   the same random numbers in the same order: floats move by a signed
   δ ≤ max_perturbation (never exactly 0), ints by a nonzero offset in
   ±max(1, round max_perturbation). *)
let float_delta rng max_perturbation =
  let delta = Rng.float_signed rng max_perturbation in
  if delta = 0.0 then max_perturbation else delta

let int_delta rng max_perturbation =
  let range = Int64.to_int (Int64.of_float (Float.max 1.0 (Float.round max_perturbation))) in
  let delta = Rng.int rng ((2 * range) + 1) - range in
  Int64.of_int (if delta = 0 then 1 else delta)

let perturb_element rng max_perturbation arr i =
  match arr.(i) with
  | Value.Float x -> arr.(i) <- Value.Float (x +. float_delta rng max_perturbation)
  | Value.Int x -> arr.(i) <- Value.Int (Int64.add x (int_delta rng max_perturbation))

(* [perturb_element] on the unboxed representation: the tag picks the
   view, and the tag itself is never touched. [i] is in range: every
   caller draws it below the buffer's length. *)
let perturb_word rng max_perturbation (words : Ustate.words) tags i =
  if Bytes.unsafe_get tags i = Ustate.tag_float then
    A1.unsafe_set words i (A1.unsafe_get words i +. float_delta rng max_perturbation)
  else begin
    let bits = Ustate.as_bits words in
    A1.unsafe_set bits i (Int64.add (A1.unsafe_get bits i) (int_delta rng max_perturbation))
  end

(* Single element, a random subset, or all elements (§5.6) of an
   [n]-element buffer. *)
let perturb_buffer rng n perturb =
  match Rng.int rng 3 with
  | 0 -> perturb (Rng.int rng n)
  | 1 ->
    let count = 1 + Rng.int rng (max 1 (n / 2)) in
    for _ = 1 to count do
      perturb (Rng.int rng n)
    done
  | _ ->
    for e = 0 to n - 1 do
      perturb e
    done

(* A sampler for one chunk: a section, one of its input buffers and the
   chunk's generator. [sample ()] perturbs the input buffer of a fresh
   entry state, executes the section, and returns the run and the
   realized |Δi| (an element hit twice accumulates, so this is not the
   largest single nudge). [distance o] is then output buffer [o]'s
   distance from the golden exit, valid until the next sample. *)
type sampler = {
  sample : unit -> Machine.run * float;
  distance : int -> float;
}

(* The boxed oracle: a deep copy of the whole entry state per sample,
   interpreted by [Machine]. *)
let boxed_sampler ~max_perturbation ~budget golden section_index input rng =
  let section = golden.Golden.sections.(section_index) in
  let entry = section.Golden.entry_state in
  let golden_exit = Golden.exit_state golden section_index in
  let state = ref entry in
  let sample () =
    state := Array.map Array.copy entry;
    let target = !state.(input) in
    perturb_buffer rng (Array.length target) (perturb_element rng max_perturbation target);
    let delta = Replay.buffer_distance entry.(input) target in
    let buffers = Array.map (fun (idx, _) -> !state.(idx)) section.Golden.bindings in
    ( Machine.exec section.Golden.kernel ~scalars:section.Golden.scalars ~buffers ~budget (),
      delta )
  in
  { sample; distance = (fun o -> Replay.buffer_distance golden_exit.(o) !state.(o)) }

(* The production path: this domain's replay workspace, reset by a blit
   of the section's bound buffers, perturbed in place and run on
   [Unboxed] — the same engine and scratch the campaigns use. *)
let unboxed_sampler ~max_perturbation ~budget golden section_index input rng =
  let plan = Workspace.plan_of golden in
  let ws = Workspace.get plan in
  let decoded = golden.Golden.sections.(section_index).Golden.decoded in
  let entry = plan.Workspace.states.(section_index) in
  let golden_exit = plan.Workspace.states.(section_index + 1) in
  let state = ws.Workspace.state in
  let words = state.Ustate.words.(input) and tags = state.Ustate.tags.(input) in
  let sample () =
    Workspace.load_section_entry ws section_index;
    perturb_buffer rng (Ustate.dim words) (perturb_word rng max_perturbation words tags);
    let delta = Ustate.buffer_distance entry input state input in
    ( Unboxed.exec decoded ~regs:ws.Workspace.regs ~rtags:ws.Workspace.rtags
        ~scal_words:plan.Workspace.scal_words.(section_index)
        ~scal_tags:plan.Workspace.scal_tags.(section_index)
        ~buffers:ws.Workspace.views.(section_index)
        ~btags:ws.Workspace.vtags.(section_index) ~budget (),
      delta )
  in
  { sample; distance = (fun o -> Ustate.buffer_distance golden_exit o state o) }

(* The sample loop is split into fixed-size chunks, each drawing from its
   own generator derived from (base seed, input index, chunk index). The
   derivation does not depend on how chunks are scheduled, so the estimate
   is identical for every pool width — including the serial path, which
   uses the exact same chunking. *)
let sample_chunk = 25

let estimate ?(samples = 200) ?(max_perturbation = 0.01) ?(safety_factor = 1.25)
    ?(pool = Pool.serial) ?(engine = Replay.default_engine) ~rng golden ~section_index =
  Telemetry.span "sensitivity.estimate"
    ~attrs:[ ("section", string_of_int section_index) ]
  @@ fun () ->
  let section = golden.Golden.sections.(section_index) in
  let inputs = Array.of_list (readable_buffers section) in
  let outputs = Array.of_list (writable_buffers section) in
  let k = Array.make_matrix (Array.length outputs) (Array.length inputs) 0.0 in
  let budget = Replay.budget_of ~timeout_factor:5.0 section.Golden.dyn_count in
  (* Advances the caller's generator exactly once, whatever the chunking. *)
  let base = Rng.int64 rng in
  let chunks_per_input = (samples + sample_chunk - 1) / sample_chunk in
  let tasks =
    Array.init
      (Array.length inputs * chunks_per_input)
      (fun t -> (t / chunks_per_input, t mod chunks_per_input))
  in
  let run_task (i_idx, chunk_index) =
    let input_buf = inputs.(i_idx) in
    let rng =
      Rng.create
        (Hashing.combine base
           (Int64.of_int ((i_idx * chunks_per_input) + chunk_index)))
    in
    let count = min sample_chunk (samples - (chunk_index * sample_chunk)) in
    let col = Array.make (Array.length outputs) 0.0 in
    let work = ref 0 in
    (* Built in the task, so the workspace is this domain's. *)
    let { sample; distance } =
      (match engine with Replay.Boxed -> boxed_sampler | Replay.Unboxed -> unboxed_sampler)
        ~max_perturbation ~budget golden section_index input_buf rng
    in
    for _ = 1 to count do
      let run, delta = sample () in
      work := !work + run.Machine.executed;
      match run.Machine.status with
      | Machine.Finished ->
        Array.iteri
          (fun o_idx output_buf ->
            (* For an inout buffer perturbed directly, measure against the
               perturbed-input baseline only through the golden exit: the
               ratio |s(x+δ) - s(x)| / |δ| of Equation 1. *)
            let ratio = distance output_buf /. delta in
            if Float.is_nan ratio then ()
            else if ratio > col.(o_idx) then col.(o_idx) <- ratio)
          outputs
      | Machine.Trapped _ | Machine.Out_of_budget ->
        (* A tiny input perturbation changed the section's fate: no
           finite amplification bound holds. *)
        Array.iteri (fun o_idx _ -> col.(o_idx) <- infinity) outputs
    done;
    (col, !work)
  in
  let parts = Pool.map_array pool run_task tasks in
  let work = ref 0 in
  (* Merging by max is order-independent; summing work in task order keeps
     the counter identical to the serial run. *)
  Array.iteri
    (fun t (col, w) ->
      let i_idx, _ = tasks.(t) in
      work := !work + w;
      Array.iteri
        (fun o_idx v -> if v > k.(o_idx).(i_idx) then k.(o_idx).(i_idx) <- v)
        col)
    parts;
  Array.iter
    (fun row ->
      Array.iteri (fun i v -> if Float.is_finite v then row.(i) <- v *. safety_factor) row)
    k;
  Telemetry.incr m_estimates;
  Telemetry.add m_samples (samples * Array.length inputs);
  (* [samples_used] is the per-estimate knob value (what the record
     stores), distinct from [samples] which multiplies by the input
     count — both visible in --metrics so --sens-samples is observable. *)
  Telemetry.add m_samples_used samples;
  Telemetry.add m_work !work;
  Telemetry.observe h_section_work !work;
  {
    section_index;
    input_buffers = inputs;
    output_buffers = outputs;
    k;
    samples_used = samples;
    work = !work;
  }

let index_of arr v =
  let n = Array.length arr in
  let rec go i = if i >= n then None else if arr.(i) = v then Some i else go (i + 1) in
  go 0

let amplification t ~output ~input =
  match (index_of t.output_buffers output, index_of t.input_buffers input) with
  | Some o, Some i -> t.k.(o).(i)
  | None, _ | _, None -> 0.0

let spec_hash t =
  let h = Hashing.create () in
  Hashing.add_int h t.section_index;
  Array.iter (Hashing.add_int h) t.input_buffers;
  Array.iter (Hashing.add_int h) t.output_buffers;
  Array.iter (fun row -> Array.iter (Hashing.add_float h) row) t.k;
  Hashing.value h

let pp fmt t =
  Format.fprintf fmt "@[<v>sensitivity of section %d:@," t.section_index;
  Array.iteri
    (fun o_idx o ->
      Array.iteri
        (fun i_idx i ->
          Format.fprintf fmt "  K(out b%d <- in b%d) = %g@," o i t.k.(o_idx).(i_idx))
        t.input_buffers)
    t.output_buffers;
  Format.fprintf fmt "@]"
