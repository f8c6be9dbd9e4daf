(* FFSTORE3 sharded-store tests: the record codec and stale records
   (including retired FFSTORE1/FFSTORE2 files), layout and placement,
   O(dirty) incremental saves, per-shard corruption salvage, compaction,
   and multi-domain writers racing a reader. *)

module Site = Ff_inject.Site
module Campaign = Ff_inject.Campaign
module Frontend = Ff_lang.Frontend
open Fastflip

let program_src =
  {|buffer a : float[2] = { 0.5, 0.25 };
buffer mid : float[2] = zeros;
output buffer res : float[2] = zeros;
kernel first(in a: float[], out mid: float[]) {
  for i in 0..2 { mid[i] = a[i] * 2.0; }
}
kernel second(in mid: float[], out res: float[]) {
  for i in 0..2 { res[i] = mid[i] + 0.5; }
}
schedule {
  call first(a, mid);
  call second(mid, res);
}|}

let quick_config =
  {
    Pipeline.default_config with
    Pipeline.campaign =
      { Campaign.default_config with Campaign.bits = Site.Bit_list [ 1; 33; 63 ] };
    sensitivity_samples = 60;
  }

let compile src = Result.get_ok (Frontend.compile src)

(* One real analyzed record, cloned under synthetic keys: sharding and
   persistence only look at [rec_key] and the record bytes, so cloning
   lets the tests populate many shards without paying for many
   campaigns. *)
let proto = lazy (
  let store = Store.create () in
  let _ = Pipeline.analyze ~store quick_config (compile program_src) in
  List.hd (Store.records store))

let mk_record i =
  let p = Lazy.force proto in
  {
    p with
    Store.rec_key =
      {
        Store.code_hash = Int64.of_int (0x5151 + (i * 131));
        input_hash = Int64.of_int (0x1234 + (i * 7));
        config_hash = 42L;
      };
  }

let cleanup path =
  (try Sys.remove path with Sys_error _ -> ());
  (try Sys.remove (path ^ ".lock") with Sys_error _ -> ());
  for i = 0 to Persist.max_shards - 1 do
    let sp = Persist.shard_path path i in
    (try Sys.remove sp with Sys_error _ -> ());
    (try Sys.remove (sp ^ ".lock") with Sys_error _ -> ())
  done

let with_temp_store f =
  let path = Filename.temp_file "ffs3" ".bin" in
  Sys.remove path;
  Fun.protect ~finally:(fun () -> cleanup path) (fun () -> f path)

let slurp path =
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  data

let spit path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let check_records_match ~msg expected loaded =
  List.iter
    (fun (r : Store.section_record) ->
      match Store.find loaded r.Store.rec_key with
      | Some found ->
        Alcotest.(check bool) (msg ^ ": record intact") true
          (Persist.roundtrip_equal r found)
      | None -> Alcotest.failf "%s: record lost" msg)
    expected

(* --- codec ----------------------------------------------------------------- *)

module Eqclass = Ff_inject.Eqclass
module Outcome = Ff_inject.Outcome
module Sensitivity = Ff_sensitivity.Sensitivity
module Telemetry = Ff_support.Telemetry

(* The original bytewise little-endian int64 writer, kept as the oracle
   for [Wire.w_int64]. [oracle_record] spells the record layouts out on
   top of it, so the tests pin every byte of the on-disk encoding:
   layout 2 is what [Wire.w_record] must write; layout 1 (no marker,
   every member array and pilot in full) is the fixture writer for
   stores written before the marker existed. *)
let oracle_int64 buf v =
  for i = 0 to 7 do
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF))
  done

let oracle_record ~layout (r : Store.section_record) =
  let buf = Buffer.create 4096 in
  let int v = oracle_int64 buf (Int64.of_int v) in
  let float v = oracle_int64 buf (Int64.bits_of_float v) in
  let array f a =
    int (Array.length a);
    Array.iter f a
  in
  let int2 a b =
    int a;
    int b
  in
  let pc (pc : Site.pc) = int2 pc.Site.kernel pc.Site.instr in
  let operand = function
    | Site.Src i -> int2 0 i
    | Site.Dst -> int2 1 0
    | Site.Op -> int2 2 0
    | Site.Mem b -> int2 3 b
  in
  let site (s : Site.t) =
    int s.Site.section;
    int s.Site.dyn;
    pc s.Site.pc;
    operand s.Site.operand;
    int s.Site.bit
  in
  let outcome = function
    | Outcome.S_detected Outcome.Crash -> int2 0 0
    | Outcome.S_detected Outcome.Timed_out -> int2 0 1
    | Outcome.S_detected Outcome.Misformatted -> int2 0 2
    | Outcome.S_sdc ms ->
      int 1;
      array
        (fun (idx, m) ->
          int idx;
          float m)
        ms
  in
  let members = array (fun (section, dyn) -> int2 section dyn) in
  let k = r.Store.rec_key in
  oracle_int64 buf k.Store.code_hash;
  oracle_int64 buf k.Store.input_hash;
  oracle_int64 buf k.Store.config_hash;
  if layout = 2 then oracle_int64 buf (-2L);
  let camp = r.Store.rec_campaign in
  int camp.Campaign.section_index;
  let prev = ref [||] in
  array
    (fun ((cls : Eqclass.t), o) ->
      pc cls.Eqclass.pc;
      operand cls.Eqclass.operand;
      int cls.Eqclass.bit;
      if layout = 1 then begin
        members cls.Eqclass.members;
        site cls.Eqclass.pilot
      end
      else begin
        (* Member tag: 0 repeats the previous class's array, 1 writes it. *)
        if cls.Eqclass.members = !prev then int 0
        else begin
          int 1;
          members cls.Eqclass.members;
          prev := cls.Eqclass.members
        end;
        (* Pilot tag: 0 is the median member at the class's own pc,
           operand and bit; 1 writes the site. *)
        let n = Array.length cls.Eqclass.members in
        let canonical =
          n > 0
          &&
          let section, dyn = cls.Eqclass.members.(n / 2) in
          cls.Eqclass.pilot
          = { Site.section; dyn; pc = cls.Eqclass.pc; operand = cls.Eqclass.operand;
              bit = cls.Eqclass.bit }
        in
        if canonical then int 0
        else begin
          int 1;
          site cls.Eqclass.pilot
        end
      end;
      outcome o)
    camp.Campaign.s_classes;
  int camp.Campaign.s_work;
  int camp.Campaign.s_injections;
  int camp.Campaign.s_sites;
  let sens = r.Store.rec_sensitivity in
  int sens.Sensitivity.section_index;
  array int sens.Sensitivity.input_buffers;
  array int sens.Sensitivity.output_buffers;
  array (array float) sens.Sensitivity.k;
  int sens.Sensitivity.samples_used;
  int sens.Sensitivity.work;
  int r.Store.rec_work;
  Buffer.contents buf

let encode r =
  let buf = Buffer.create 4096 in
  Wire.w_record buf r;
  Buffer.contents buf

let decode bytes = Wire.r_record (Wire.cursor bytes)

let test_record_codec_matches_oracle () =
  let r = Lazy.force proto in
  let classes = r.Store.rec_campaign.Campaign.s_classes in
  Alcotest.(check bool) "record has classes" true (Array.length classes > 0);
  let bytes = encode r in
  Alcotest.(check string) "encoding equals the bytewise oracle" (oracle_record ~layout:2 r) bytes;
  (* The analysis record exercises both short forms: repeated member
     arrays and canonical pilots. *)
  let repeats =
    List.filter
      (fun i -> (fst classes.(i)).Eqclass.members = (fst classes.(i - 1)).Eqclass.members)
      (List.init (Array.length classes - 1) succ)
  in
  Alcotest.(check bool) "some classes repeat their predecessor's members" true (repeats <> []);
  Alcotest.(check bool) "layout 2 is smaller than layout 1" true
    (String.length bytes < String.length (oracle_record ~layout:1 r));
  let c = Wire.cursor bytes in
  let back = Wire.r_record c in
  Alcotest.(check bool) "decoder consumed every byte" true (Wire.at_end c);
  Alcotest.(check bool) "record reads back" true (Persist.roundtrip_equal r back);
  Alcotest.check_raises "truncated int64 is Corrupt" (Wire.Corrupt "truncated int64")
    (fun () -> ignore (decode (String.sub bytes 0 20)));
  Alcotest.check_raises "truncated marker is Corrupt" (Wire.Corrupt "truncated int64")
    (fun () -> ignore (decode (String.sub bytes 0 36)));
  Alcotest.check_raises "a layout-1 record is Stale" Wire.Stale (fun () ->
      ignore (decode (oracle_record ~layout:1 r)))

(* Random records over the codec's whole domain: members shared with
   the previous class, unshared copies, arrays shared with a class
   further back, empty arrays, members from other sections, canonical
   and arbitrary pilots, every operand kind and both outcome kinds. The
   classes are deliberately not sorted. *)
let random_record seed =
  let st = Random.State.make [| seed |] in
  let int n = Random.State.int st n in
  let section_index = int 4 in
  let member () = ((if int 4 = 0 then int 6 else section_index), int 1000) in
  let random_operand () =
    match int 4 with
    | 0 -> Site.Src (int 3)
    | 1 -> Site.Dst
    | 2 -> Site.Op
    | _ -> Site.Mem (int 4)
  in
  let float () =
    match int 4 with
    | 0 -> Float.nan
    | 1 -> -0.0
    | 2 -> Random.State.float st 1e6
    | _ -> Int64.float_of_bits (Random.State.bits64 st)
  in
  let outcome () =
    match int 4 with
    | 0 -> Outcome.S_detected Outcome.Crash
    | 1 -> Outcome.S_detected Outcome.Timed_out
    | 2 -> Outcome.S_detected Outcome.Misformatted
    | _ -> Outcome.S_sdc (Array.init (int 3) (fun _ -> (int 4, float ())))
  in
  let used = ref [ [||] ] in
  let classes = ref [] in
  for _ = 1 to 1 + int 4 do
    let pc = { Site.kernel = int 3; instr = int 50 } in
    let operand = random_operand () in
    let group =
      if int 4 = 0 then List.nth !used (int (List.length !used))
      else Array.init (int 5) (fun _ -> member ())
    in
    used := group :: !used;
    for bit = 0 to int 4 do
      let members = if int 4 = 0 then Array.copy group else group in
      let n = Array.length members in
      let pilot =
        if n > 0 && int 3 > 0 then
          let section, dyn = members.(n / 2) in
          { Site.section; dyn; pc; operand; bit }
        else
          { Site.section = int 6; dyn = int 1000; pc = { Site.kernel = int 3; instr = int 50 };
            operand = random_operand (); bit = int 64 }
      in
      classes := ({ Eqclass.pc; operand; bit; members; pilot }, outcome ()) :: !classes
    done
  done;
  let rows = int 3 and cols = int 3 in
  {
    Store.rec_key =
      {
        Store.code_hash = Random.State.bits64 st;
        input_hash = Random.State.bits64 st;
        config_hash = Random.State.bits64 st;
      };
    rec_campaign =
      {
        Campaign.section_index;
        s_classes = Array.of_list !classes;
        s_work = int 10_000;
        s_injections = int 100;
        s_sites = int 1000;
      };
    rec_sensitivity =
      {
        Sensitivity.section_index;
        input_buffers = Array.init rows (fun _ -> int 8);
        output_buffers = Array.init cols (fun _ -> int 8);
        k = Array.init rows (fun _ -> Array.init cols (fun _ -> float ()));
        samples_used = int 100;
        work = int 10_000;
      };
    rec_work = int 10_000;
  }

let prop_codec_roundtrip =
  QCheck2.Test.make ~count:200 ~name:"random records round-trip; truncations are Corrupt"
    ~print:string_of_int QCheck2.Gen.int
    (fun seed ->
      let r = random_record seed in
      let bytes = encode r in
      let c = Wire.cursor bytes in
      let back = Wire.r_record c in
      let before = r.Store.rec_campaign.Campaign.s_classes
      and after = back.Store.rec_campaign.Campaign.s_classes in
      let shared_again i =
        i = 0
        || (fst before.(i)).Eqclass.members <> (fst before.(i - 1)).Eqclass.members
        || (fst after.(i)).Eqclass.members == (fst after.(i - 1)).Eqclass.members
      in
      let truncation_is_corrupt k =
        match decode (String.sub bytes 0 k) with
        | _ -> false
        | exception Wire.Corrupt _ -> true
        | exception _ -> false
      in
      String.equal bytes (oracle_record ~layout:2 r)
      && Persist.roundtrip_equal r back
      && Wire.at_end c
      && List.for_all shared_again (List.init (Array.length before) Fun.id)
      && List.for_all truncation_is_corrupt (List.init (String.length bytes) Fun.id)
      && match decode (oracle_record ~layout:1 r) with
         | _ -> false
         | exception Wire.Stale -> true)

(* Layout-1 containers, written byte by byte with the fixture oracle. *)
let frame_all records =
  String.concat "" (List.map (fun r -> Wire.frame (oracle_record ~layout:1 r)) records)

let count_prefix n =
  let buf = Buffer.create 8 in
  oracle_int64 buf (Int64.of_int n);
  Buffer.contents buf

let write_layout1_v1 records ~path =
  spit path
    ("FFSTORE1" ^ count_prefix (List.length records)
    ^ String.concat "" (List.map (oracle_record ~layout:1) records))

let write_layout1_v2 records ~path =
  spit path ("FFSTORE2" ^ count_prefix (List.length records) ^ frame_all records)

(* A v3 store whose shard logs hold the same records in layout 1: saved
   normally, then every log rewritten frame for frame, so the manifest's
   declared counts still match. *)
let write_layout1_v3 records ~path =
  let store = Store.create () in
  List.iter (Store.add store) records;
  ignore (Persist.save store ~path ~shards:4);
  for i = 0 to 3 do
    let spath = Persist.shard_path path i in
    if Sys.file_exists spath then begin
      let frames, _ = Wire.read_frames ~pos:8 (slurp spath) in
      spit spath ("FFSHARD1" ^ frame_all (List.map decode frames))
    end
  done

(* A retired FFSTORE1/FFSTORE2 file is left byte-identical by [load_v]
   and [stat]; the next save replaces it with an FFSTORE3 store holding
   only the new records. *)
let check_retired_file_replaced ~name ~path (ld : Persist.loaded) =
  let before = slurp path in
  (match Persist.stat ~path with
  | Error e -> Alcotest.failf "%s: stat failed: %s" name e
  | Ok info ->
    Alcotest.(check int) (name ^ ": stat: stale") 7 info.Persist.st_stale;
    Alcotest.(check int) (name ^ ": stat: no live records") 0 info.Persist.st_live;
    Alcotest.(check int) (name ^ ": stat: nothing skipped") 0 info.Persist.st_skipped);
  Alcotest.(check bool) (name ^ ": load and stat leave the file alone") true
    (String.equal before (slurp path));
  let fresh = [ mk_record 100; mk_record 101 ] in
  List.iter (Store.add ld.Persist.ld_store) fresh;
  let s = Persist.save ld.Persist.ld_store ~path in
  Alcotest.(check int) (name ^ ": the save writes only the new records") 2
    s.Persist.sv_appended;
  (match Persist.stat ~path with
  | Error e -> Alcotest.failf "%s: stat after save failed: %s" name e
  | Ok info ->
    Alcotest.(check string) (name ^ ": replaced by") "FFSTORE3" info.Persist.st_format;
    Alcotest.(check int) (name ^ ": only the new records") 2 info.Persist.st_live;
    Alcotest.(check int) (name ^ ": no stale frames left") 0 info.Persist.st_stale);
  match Persist.load ~path with
  | Error e -> Alcotest.failf "%s: reload failed: %s" name e
  | Ok (loaded, skipped) ->
    Alcotest.(check int) (name ^ ": reload pristine") 0 skipped;
    Alcotest.(check int) (name ^ ": reload size") 2 (Store.size loaded);
    check_records_match ~msg:(name ^ ": after replacement") fresh loaded

let test_layout1_stores_load_stale () =
  let stale_counter = Telemetry.counter "persist.records_stale" in
  let was_enabled = Telemetry.enabled () in
  Telemetry.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled was_enabled) @@ fun () ->
  let records = List.init 7 mk_record in
  List.iter
    (fun (name, write) ->
      with_temp_store @@ fun path ->
      write records ~path;
      let before = slurp path in
      let stale0 = Telemetry.value stale_counter in
      match Persist.load_v ~path with
      | Error e -> Alcotest.failf "%s: load failed: %s" name e
      | Ok ld ->
        Alcotest.(check int) (name ^ ": no records") 0 (Store.size ld.Persist.ld_store);
        Alcotest.(check int) (name ^ ": nothing skipped") 0 ld.Persist.ld_skipped;
        Alcotest.(check int) (name ^ ": all stale") 7 ld.Persist.ld_stale;
        Alcotest.(check int) (name ^ ": persist.records_stale") 7
          (Telemetry.value stale_counter - stale0);
        if name <> "v3" then begin
          Alcotest.(check bool) (name ^ ": load leaves the file alone") true
            (String.equal before (slurp path));
          check_retired_file_replaced ~name ~path ld
        end)
    [ ("v3", write_layout1_v3); ("v2", write_layout1_v2); ("v1", write_layout1_v1) ]

let test_stale_store_stat_load_save () =
  with_temp_store @@ fun path ->
  let records = List.init 6 mk_record in
  write_layout1_v3 records ~path;
  (match Persist.stat ~path with
  | Error e -> Alcotest.failf "stat failed: %s" e
  | Ok info ->
    Alcotest.(check int) "stat: stale frames" 6 info.Persist.st_stale;
    Alcotest.(check int) "stat: no live records" 0 info.Persist.st_live;
    Alcotest.(check int) "stat: no dead frames" 0 info.Persist.st_dead;
    Alcotest.(check int) "stat: nothing skipped" 0 info.Persist.st_skipped);
  let bytes_of () = List.init 4 (fun i -> slurp (Persist.shard_path path i)) in
  let before = bytes_of () in
  match Persist.load ~path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok (store, skipped) ->
    Alcotest.(check int) "load: no records" 0 (Store.size store);
    Alcotest.(check int) "load: nothing skipped" 0 skipped;
    let s = Persist.save store ~path in
    Alcotest.(check int) "an empty save appends nothing" 0 s.Persist.sv_appended;
    Alcotest.(check bool) "an empty save leaves the logs alone" true (bytes_of () = before);
    (* The sections are recomputed and saved next to the stale frames. *)
    List.iter (Store.add store) records;
    let s = Persist.save store ~path in
    Alcotest.(check int) "recomputed records appended" 6 s.Persist.sv_appended;
    (match Persist.load ~path with
    | Error e -> Alcotest.failf "reload failed: %s" e
    | Ok (loaded, skipped) ->
      Alcotest.(check int) "reload pristine" 0 skipped;
      Alcotest.(check int) "reload size" 6 (Store.size loaded);
      check_records_match ~msg:"after the stale store" records loaded);
    (match Persist.compact ~path () with
    | Error e -> Alcotest.failf "compact failed: %s" e
    | Ok cp ->
      Alcotest.(check int) "compaction keeps the live records" 6 cp.Persist.cp_live;
      Alcotest.(check int) "compaction drops the stale frames" 6 cp.Persist.cp_dropped);
    (match Persist.stat ~path with
    | Error e -> Alcotest.failf "stat failed: %s" e
    | Ok info -> Alcotest.(check int) "compaction drops stale frames" 0 info.Persist.st_stale);
    match Persist.load ~path with
    | Error e -> Alcotest.failf "reload failed: %s" e
    | Ok (loaded, skipped) ->
      Alcotest.(check int) "compacted pristine" 0 skipped;
      check_records_match ~msg:"compacted" records loaded

let distinct_member_arrays (r : Store.section_record) =
  Array.fold_left
    (fun seen ((cls : Eqclass.t), _) ->
      if List.memq cls.Eqclass.members seen then seen else cls.Eqclass.members :: seen)
    [] r.Store.rec_campaign.Campaign.s_classes
  |> List.length

let test_rebase_keeps_sharing () =
  let original = Lazy.force proto in
  List.iter
    (fun (name, r) ->
      let index = r.Store.rec_campaign.Campaign.section_index + 3 in
      let moved = Pipeline.rebase_record r ~section_index:index in
      Alcotest.(check bool) (name ^ ": classes share arrays") true
        (distinct_member_arrays r < Array.length r.Store.rec_campaign.Campaign.s_classes);
      Alcotest.(check int) (name ^ ": as many distinct arrays after rebase")
        (distinct_member_arrays r) (distinct_member_arrays moved);
      Array.iter2
        (fun ((cls : Eqclass.t), _) ((moved_cls : Eqclass.t), _) ->
          Alcotest.(check bool) (name ^ ": members rebased") true
            (moved_cls.Eqclass.members
            = Array.map (fun (_, dyn) -> (index, dyn)) cls.Eqclass.members);
          Alcotest.(check int) (name ^ ": pilot rebased") index moved_cls.Eqclass.pilot.Site.section)
        r.Store.rec_campaign.Campaign.s_classes moved.Store.rec_campaign.Campaign.s_classes;
      Alcotest.(check bool) (name ^ ": rebased record round-trips") true
        (Persist.roundtrip_equal moved (decode (encode moved))))
    [ ("analysis record", original); ("decoded record", decode (encode original)) ]

(* --- layout ---------------------------------------------------------------- *)

let test_sharded_layout_and_stat () =
  with_temp_store @@ fun path ->
  let store = Store.create () in
  let records = List.init 20 mk_record in
  List.iter (Store.add store) records;
  let s = Persist.save store ~path ~shards:4 in
  Alcotest.(check int) "all appended" 20 s.Persist.sv_appended;
  Alcotest.(check int) "all live" 20 s.Persist.sv_live;
  Alcotest.(check bool) "manifest exists" true (Sys.file_exists path);
  for i = 0 to 3 do
    Alcotest.(check bool) (Printf.sprintf "shard %d exists" i) true
      (Sys.file_exists (Persist.shard_path path i))
  done;
  Alcotest.(check bool) "no shard beyond the layout" false
    (Sys.file_exists (Persist.shard_path path 4));
  (* [stat] must agree with [shard_of] about where every key lives. *)
  let expected = Array.make 4 0 in
  List.iter
    (fun (r : Store.section_record) ->
      let i = Persist.shard_of ~shards:4 r.Store.rec_key in
      expected.(i) <- expected.(i) + 1)
    records;
  (match Persist.stat ~path with
  | Error e -> Alcotest.failf "stat failed: %s" e
  | Ok info ->
    Alcotest.(check string) "format" "FFSTORE3" info.Persist.st_format;
    Alcotest.(check int) "shards" 4 info.Persist.st_shards;
    Alcotest.(check int) "live" 20 info.Persist.st_live;
    Alcotest.(check int) "no dead frames" 0 info.Persist.st_dead;
    Alcotest.(check int) "nothing skipped" 0 info.Persist.st_skipped;
    List.iter
      (fun (sh : Persist.shard_info) ->
        Alcotest.(check int)
          (Printf.sprintf "shard %d placement" sh.Persist.sh_index)
          expected.(sh.Persist.sh_index) sh.Persist.sh_live)
      info.Persist.st_per_shard);
  match Persist.load ~path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok (loaded, skipped) ->
    Alcotest.(check int) "pristine" 0 skipped;
    Alcotest.(check int) "size" 20 (Store.size loaded);
    check_records_match ~msg:"roundtrip" records loaded

(* --- O(dirty) saves -------------------------------------------------------- *)

let test_save_is_o_dirty () =
  with_temp_store @@ fun path ->
  let store = Store.create () in
  List.iter (Store.add store) (List.init 20 mk_record);
  let s1 = Persist.save store ~path in
  Alcotest.(check int) "initial save writes everything" 20 s1.Persist.sv_appended;
  let s2 = Persist.save store ~path in
  Alcotest.(check int) "clean save appends nothing" 0 s2.Persist.sv_appended;
  Alcotest.(check int64) "no-op save keeps the generation" s1.Persist.sv_generation
    s2.Persist.sv_generation;
  List.iter (Store.add store) [ mk_record 20; mk_record 21; mk_record 22 ];
  let s3 = Persist.save store ~path in
  Alcotest.(check int) "delta save appends exactly the delta" 3
    s3.Persist.sv_appended;
  Alcotest.(check bool) "content change bumps the generation" true
    (s3.Persist.sv_generation > s2.Persist.sv_generation);
  (* Replacing an existing key is one dirty record, not a rewrite. *)
  Store.add store (mk_record 5);
  let s4 = Persist.save store ~path in
  Alcotest.(check int) "replacement appends one" 1 s4.Persist.sv_appended;
  match Persist.load ~path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok (loaded, skipped) -> (
    Alcotest.(check int) "pristine" 0 skipped;
    Alcotest.(check int) "size" 23 (Store.size loaded);
    check_records_match ~msg:"delta log" (Store.records store) loaded;
    (* The daemon's flow: a loaded store is clean, so accumulating on it
       and saving appends only the new records and keeps the union. *)
    List.iter (Store.add loaded) [ mk_record 30; mk_record 31 ];
    let s5 = Persist.save loaded ~path in
    Alcotest.(check int) "loaded store appends only its additions" 2 s5.Persist.sv_appended;
    match Persist.load ~path with
    | Error e -> Alcotest.failf "reload failed: %s" e
    | Ok (union, skipped) ->
      Alcotest.(check int) "reload pristine" 0 skipped;
      Alcotest.(check int) "union size" 25 (Store.size union);
      check_records_match ~msg:"load, add, save" (Store.records loaded) union)

(* --- analysis through the store ------------------------------------------ *)

let selection_equal a b =
  let sa = Pipeline.select a ~target:0.9 and sb = Pipeline.select b ~target:0.9 in
  sa.Knapsack.pcs = sb.Knapsack.pcs
  && sa.Knapsack.value = sb.Knapsack.value
  && sa.Knapsack.cost = sb.Knapsack.cost

let check_bit_identical ~msg (a : Pipeline.analysis) (b : Pipeline.analysis) =
  Alcotest.(check int) (msg ^ ": section count")
    (Array.length a.Pipeline.sections)
    (Array.length b.Pipeline.sections);
  Array.iteri
    (fun i ra ->
      Alcotest.(check bool) (Printf.sprintf "%s: section %d record" msg i) true
        (Persist.roundtrip_equal ra b.Pipeline.sections.(i)))
    a.Pipeline.sections;
  Alcotest.(check bool) (msg ^ ": valuation") true
    (a.Pipeline.valuation.Valuation.values = b.Pipeline.valuation.Valuation.values);
  Alcotest.(check bool) (msg ^ ": knapsack selection") true (selection_equal a b)

let test_pipeline_bit_identity_v3 () =
  (* The acceptance contract: an analysis served from a saved and
     reloaded FFSTORE3 store is bit-identical to the from-scratch
     reference. *)
  with_temp_store @@ fun path ->
  let program = compile program_src in
  let store = Store.create () in
  let reference = Pipeline.analyze ~store quick_config program in
  let _ = Persist.save store ~path in
  match Persist.load ~path with
  | Error e -> Alcotest.failf "v3 load failed: %s" e
  | Ok (v3_store, skipped) ->
    Alcotest.(check int) "v3 store pristine" 0 skipped;
    let from_v3 = Pipeline.analyze ~store:v3_store quick_config program in
    Alcotest.(check int) "v3 store: everything reused" 0
      from_v3.Pipeline.sections_analyzed;
    check_bit_identical ~msg:"FFSTORE3" reference from_v3

(* --- corruption ------------------------------------------------------------ *)

(* Pristine 4-shard image shared by the corruption fuzz: the records,
   the manifest bytes, and each shard log's bytes. *)
let sharded_pristine = lazy (
  let store = Store.create () in
  List.iter (Store.add store) (List.init 32 mk_record);
  let path = Filename.temp_file "ffs3fix" ".bin" in
  Sys.remove path;
  let _ = Persist.save store ~path ~shards:4 in
  let manifest = slurp path in
  let shards = Array.init 4 (fun i -> slurp (Persist.shard_path path i)) in
  cleanup path;
  (store, manifest, shards))

let corrupt ~kind ~frac ~byte data =
  let n = String.length data in
  let off = min (n - 1) (int_of_float (frac *. float_of_int n)) in
  match kind with
  | 0 ->
    let b = Bytes.of_string data in
    Bytes.set b off
      (Char.chr (Char.code (Bytes.get b off) lxor (1 + (byte mod 255))));
    Bytes.to_string b
  | 1 -> String.sub data 0 off
  | _ ->
    let b = Bytes.of_string data in
    for i = off to min (n - 1) (off + 15) do
      Bytes.set b i '\000'
    done;
    Bytes.to_string b

let prop_corrupt_shard_salvage =
  QCheck2.Test.make ~count:100
    ~name:"corrupt shard: load never raises, siblings survive intact"
    QCheck2.Gen.(
      quad (int_range 0 3) (int_range 0 2) (float_bound_exclusive 1.0)
        (int_range 0 255))
    (fun (victim, kind, frac, byte) ->
      let store, manifest, shards = Lazy.force sharded_pristine in
      let path = Filename.temp_file "ffs3fuzz" ".bin" in
      Sys.remove path;
      spit path manifest;
      Array.iteri
        (fun i data ->
          let data = if i = victim then corrupt ~kind ~frac ~byte data else data in
          spit (Persist.shard_path path i) data)
        shards;
      let result = Persist.load ~path in
      cleanup path;
      match result with
      | Error _ -> false (* the manifest is intact: load must succeed *)
      | Ok (loaded, skipped) ->
        (* Damage is confined: every record hashed to a sibling shard
           survives byte-identically. *)
        List.for_all
          (fun (r : Store.section_record) ->
            Persist.shard_of ~shards:4 r.Store.rec_key = victim
            ||
            match Store.find loaded r.Store.rec_key with
            | Some found -> Persist.roundtrip_equal r found
            | None -> false)
          (Store.records store)
        (* Salvage never invents or distorts a record... *)
        && List.for_all
             (fun (r : Store.section_record) ->
               match Store.find store r.Store.rec_key with
               | Some original -> Persist.roundtrip_equal original r
               | None -> false)
             (Store.records loaded)
        (* ...and never drops one silently. *)
        && (Store.size loaded = Store.size store || skipped > 0))

let test_manifest_corruption_salvages_from_shards () =
  with_temp_store @@ fun path ->
  let store = Store.create () in
  let records = List.init 12 mk_record in
  List.iter (Store.add store) records;
  let _ = Persist.save store ~path ~shards:4 in
  let manifest = slurp path in
  (* Tear the manifest's tail: the frame is damaged but the magic
     survives, so the loader falls back to probing the logs. *)
  spit path (String.sub manifest 0 (String.length manifest - 5));
  (match Persist.load ~path with
  | Error e -> Alcotest.failf "torn manifest should salvage: %s" e
  | Ok (loaded, skipped) ->
    Alcotest.(check bool) "damage reported" true (skipped > 0);
    Alcotest.(check int) "every record salvaged" 12 (Store.size loaded);
    check_records_match ~msg:"torn manifest" records loaded);
  (* Destroy the magic outright, or flip it into a retired container's
     magic: the shard logs still identify themselves, so the store
     remains loadable. *)
  List.iter
    (fun magic ->
      spit path (magic ^ String.sub manifest 8 (String.length manifest - 8));
      match Persist.load ~path with
      | Error e -> Alcotest.failf "%s manifest should salvage: %s" magic e
      | Ok (loaded, skipped) ->
        Alcotest.(check bool) (magic ^ ": damage reported") true (skipped > 0);
        Alcotest.(check int) (magic ^ ": every record salvaged") 12 (Store.size loaded);
        check_records_match ~msg:(magic ^ " manifest") records loaded)
    [ "XXXXXXXX"; "FFSTORE2"; "FFSTORE1" ]

let test_missing_manifest_salvages_from_shards () =
  (* A writer SIGKILLed between its first shard write and the first
     manifest write leaves logs but no manifest at all — everything
     fsynced into the logs must still load, and stat must agree. *)
  with_temp_store @@ fun path ->
  let store = Store.create () in
  let records = List.init 9 mk_record in
  List.iter (Store.add store) records;
  let _ = Persist.save store ~path ~shards:4 in
  Sys.remove path;
  (match Persist.load ~path with
  | Error e -> Alcotest.failf "missing manifest should salvage: %s" e
  | Ok (loaded, skipped) ->
    Alcotest.(check bool) "damage reported" true (skipped > 0);
    Alcotest.(check int) "every record salvaged" 9 (Store.size loaded);
    check_records_match ~msg:"missing manifest" records loaded);
  (match Persist.stat ~path with
  | Error e -> Alcotest.failf "stat should salvage too: %s" e
  | Ok info -> Alcotest.(check int) "stat sees the records" 9 info.Persist.st_live);
  (* With neither manifest nor logs, the path is simply not a store. *)
  let empty = Filename.temp_file "ffstore3_none" ".bin" in
  Sys.remove empty;
  match Persist.load ~path:empty with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a path with no files at all should not load"

let test_fresh_save_keeps_orphaned_logs () =
  (* A writer killed before its first manifest write leaves only shard
     logs. A later writer that never loaded them — a daemon started
     cold, say — must merge them into its first save, not overwrite
     them. *)
  with_temp_store @@ fun path ->
  let orphaned = List.init 9 mk_record in
  let first = Store.create () in
  List.iter (Store.add first) orphaned;
  let _ = Persist.save first ~path ~shards:4 in
  Sys.remove path;
  let fresh = List.init 5 (fun i -> mk_record (200 + i)) in
  let second = Store.create () in
  List.iter (Store.add second) fresh;
  let _ = Persist.save second ~path in
  match Persist.load ~path with
  | Error e -> Alcotest.failf "reload failed: %s" e
  | Ok (loaded, skipped) ->
    Alcotest.(check int) "reload pristine" 0 skipped;
    Alcotest.(check int) "the union" 14 (Store.size loaded);
    check_records_match ~msg:"orphaned logs" orphaned loaded;
    check_records_match ~msg:"fresh records" fresh loaded

(* --- compaction ------------------------------------------------------------ *)

let test_compaction_auto () =
  with_temp_store @@ fun path ->
  let store = Store.create () in
  let r0 = mk_record 0 and r1 = mk_record 1 in
  Store.add store r0;
  Store.add store r1;
  let _ = Persist.save store ~path ~shards:1 in
  (* Each wave supersedes both records; the lone shard log accumulates
     dead frames until the save-time threshold rewrites it. *)
  let compacted = ref 0 in
  for _ = 1 to 6 do
    Store.add store r0;
    Store.add store r1;
    let s = Persist.save store ~path in
    compacted := !compacted + s.Persist.sv_compacted
  done;
  Alcotest.(check bool) "auto-compaction fired" true (!compacted > 0);
  (match Persist.stat ~path with
  | Error e -> Alcotest.failf "stat failed: %s" e
  | Ok info ->
    Alcotest.(check int) "live" 2 info.Persist.st_live;
    Alcotest.(check bool) "dead frames bounded by the threshold" true
      (info.Persist.st_dead < 8));
  match Persist.load ~path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok (loaded, skipped) ->
    Alcotest.(check int) "pristine" 0 skipped;
    Alcotest.(check int) "two live records" 2 (Store.size loaded);
    check_records_match ~msg:"compacted log" [ r0; r1 ] loaded

let test_compact_reshards () =
  with_temp_store @@ fun path ->
  let store = Store.create () in
  let records = List.init 24 mk_record in
  List.iter (Store.add store) records;
  let _ = Persist.save store ~path ~shards:4 in
  (* Supersede everything once: 24 dead frames, below the auto
     threshold (12 frames vs 2*6 live per shard), so they persist until
     the explicit compact. *)
  List.iter (Store.add store) records;
  let _ = Persist.save store ~path in
  (match Persist.compact ~path ~shards:8 () with
  | Error e -> Alcotest.failf "compact failed: %s" e
  | Ok cp ->
    Alcotest.(check int) "live" 24 cp.Persist.cp_live;
    Alcotest.(check int) "dead frames dropped" 24 cp.Persist.cp_dropped;
    Alcotest.(check int) "resharded" 8 cp.Persist.cp_shards);
  (match Persist.stat ~path with
  | Error e -> Alcotest.failf "stat failed: %s" e
  | Ok info ->
    Alcotest.(check int) "new layout" 8 info.Persist.st_shards;
    Alcotest.(check int) "live" 24 info.Persist.st_live;
    Alcotest.(check int) "no dead frames" 0 info.Persist.st_dead);
  Alcotest.(check bool) "old layout has no stale extra logs" true
    (Sys.file_exists (Persist.shard_path path 7));
  match Persist.load ~path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok (loaded, skipped) ->
    Alcotest.(check int) "pristine" 0 skipped;
    Alcotest.(check int) "size" 24 (Store.size loaded);
    check_records_match ~msg:"resharded" records loaded

(* --- concurrency ------------------------------------------------------------ *)

let test_concurrent_writers_and_reader () =
  (* Four domains race incremental saves — writers 0 and 1 share five
     keys (overlapping shards), the rest are disjoint — while a reader
     domain loads continuously. Re-adding the same keys each wave piles
     up superseded frames, so auto-compaction also runs under the race.
     The reader must never see an error or a distorted record; the
     final store must hold exactly the union. *)
  with_temp_store @@ fun path ->
  let keys_for d =
    let own = List.init 5 (fun i -> 300 + (d * 10) + i) in
    if d = 1 then own @ List.init 5 (fun i -> 300 + i) else own
  in
  let records_for d = List.map mk_record (keys_for d) in
  let union : (Store.key, Store.section_record) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun d ->
      List.iter
        (fun (r : Store.section_record) -> Hashtbl.replace union r.Store.rec_key r)
        (records_for d))
    [ 0; 1; 2; 3 ];
  (* Seed the v3 layout before the race so every writer appends. *)
  let seed_record = mk_record 299 in
  Hashtbl.replace union seed_record.Store.rec_key seed_record;
  let seed = Store.create () in
  Store.add seed seed_record;
  let _ = Persist.save seed ~path ~shards:4 in
  let stop = Atomic.make false in
  let reader_ok = Atomic.make true in
  let reader =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          match Persist.load ~path with
          | Error _ -> Atomic.set reader_ok false
          | Ok (loaded, _) ->
            List.iter
              (fun (r : Store.section_record) ->
                match Hashtbl.find_opt union r.Store.rec_key with
                | Some original when Persist.roundtrip_equal original r -> ()
                | _ -> Atomic.set reader_ok false)
              (Store.records loaded)
        done)
  in
  let writers =
    List.map
      (fun d ->
        Domain.spawn (fun () ->
            let store = Store.create () in
            let rs = records_for d in
            for _ = 1 to 4 do
              List.iter (Store.add store) rs;
              ignore (Persist.save store ~path)
            done))
      [ 0; 1; 2; 3 ]
  in
  List.iter Domain.join writers;
  Atomic.set stop true;
  Domain.join reader;
  Alcotest.(check bool) "reader never saw an error or a bad record" true
    (Atomic.get reader_ok);
  match Persist.load ~path with
  | Error e -> Alcotest.failf "final load failed: %s" e
  | Ok (loaded, skipped) ->
    Alcotest.(check int) "quiesced store is pristine" 0 skipped;
    Alcotest.(check int) "exactly the union" (Hashtbl.length union)
      (Store.size loaded);
    Hashtbl.iter
      (fun key original ->
        match Store.find loaded key with
        | Some found ->
          Alcotest.(check bool) "record intact under concurrency" true
            (Persist.roundtrip_equal original found)
        | None -> Alcotest.fail "record lost under concurrency")
      union

let () =
  Alcotest.run "store3"
    [
      ( "codec",
        [
          Alcotest.test_case "record bytes match the bytewise oracle" `Quick
            test_record_codec_matches_oracle;
          QCheck_alcotest.to_alcotest prop_codec_roundtrip;
          Alcotest.test_case "layout-1 stores load as stale" `Quick
            test_layout1_stores_load_stale;
          Alcotest.test_case "stale store: stat, load, save, compact" `Quick
            test_stale_store_stat_load_save;
          Alcotest.test_case "rebase keeps member sharing" `Quick test_rebase_keeps_sharing;
        ] );
      ( "layout",
        [
          Alcotest.test_case "sharded layout and stat" `Quick
            test_sharded_layout_and_stat;
          Alcotest.test_case "save is O(dirty)" `Quick test_save_is_o_dirty;
          Alcotest.test_case "pipeline bit-identity through v3" `Quick
            test_pipeline_bit_identity_v3;
        ] );
      ( "corruption",
        [
          QCheck_alcotest.to_alcotest prop_corrupt_shard_salvage;
          Alcotest.test_case "manifest corruption salvages from shards" `Quick
            test_manifest_corruption_salvages_from_shards;
          Alcotest.test_case "missing manifest salvages from shards" `Quick
            test_missing_manifest_salvages_from_shards;
          Alcotest.test_case "fresh save keeps orphaned shard logs" `Quick
            test_fresh_save_keeps_orphaned_logs;
        ] );
      ( "compaction",
        [
          Alcotest.test_case "auto-compaction at save time" `Quick
            test_compaction_auto;
          Alcotest.test_case "explicit compact reshards" `Quick
            test_compact_reshards;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "4 writers vs reader" `Quick
            test_concurrent_writers_and_reader;
        ] );
    ]
