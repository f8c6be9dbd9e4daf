(* FFSTORE3 sharded-store tests: layout and placement, O(dirty)
   incremental saves, legacy migration differentials, per-shard
   corruption salvage, compaction, and multi-domain writers racing a
   reader. The legacy monolithic salvage paths keep their own coverage
   in test_core.ml / test_extensions.ml. *)

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

(* The original bytewise little-endian int64 writer, kept as the oracle
   for [Wire.w_int64]. [oracle_record] spells the record layout out on
   top of it, so the test pins every byte of the on-disk encoding. *)
let oracle_int64 buf v =
  for i = 0 to 7 do
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF))
  done

let oracle_record (r : Store.section_record) =
  let module Eqclass = Ff_inject.Eqclass in
  let module Outcome = Ff_inject.Outcome in
  let module Sensitivity = Ff_sensitivity.Sensitivity in
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
  let k = r.Store.rec_key in
  oracle_int64 buf k.Store.code_hash;
  oracle_int64 buf k.Store.input_hash;
  oracle_int64 buf k.Store.config_hash;
  let camp = r.Store.rec_campaign in
  int camp.Campaign.section_index;
  array
    (fun ((cls : Eqclass.t), o) ->
      pc cls.Eqclass.pc;
      operand cls.Eqclass.operand;
      int cls.Eqclass.bit;
      array (fun (section, dyn) -> int2 section dyn) cls.Eqclass.members;
      site cls.Eqclass.pilot;
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

let test_record_codec_matches_oracle () =
  let r = Lazy.force proto in
  Alcotest.(check bool) "record has classes" true
    (Array.length r.Store.rec_campaign.Campaign.s_classes > 0);
  let buf = Buffer.create 4096 in
  Wire.w_record buf r;
  let bytes = Buffer.contents buf in
  Alcotest.(check string) "encoding equals the bytewise oracle" (oracle_record r) bytes;
  let c = Wire.cursor bytes in
  let back = Wire.r_record c in
  Alcotest.(check bool) "decoder consumed every byte" true (Wire.at_end c);
  Alcotest.(check bool) "record reads back" true (Persist.roundtrip_equal r back);
  Alcotest.check_raises "truncated int64 is Corrupt" (Wire.Corrupt "truncated int64")
    (fun () -> ignore (Wire.r_record (Wire.cursor (String.sub bytes 0 20))))

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
  | Ok (loaded, skipped) ->
    Alcotest.(check int) "pristine" 0 skipped;
    Alcotest.(check int) "size" 23 (Store.size loaded);
    check_records_match ~msg:"delta log" (Store.records store) loaded

(* --- migration ------------------------------------------------------------- *)

let test_migration_differential () =
  let store = Store.create () in
  let _ = Pipeline.analyze ~store quick_config (compile program_src) in
  List.iter (Store.add store) (List.init 10 (fun i -> mk_record (100 + i)));
  List.iter
    (fun (name, write_legacy) ->
      with_temp_store @@ fun path ->
      write_legacy store ~path;
      match Persist.load_v ~path with
      | Error e -> Alcotest.failf "%s: load failed: %s" name e
      | Ok (loaded, skipped, gen) ->
        Alcotest.(check int) (name ^ ": fixture pristine") 0 skipped;
        Alcotest.(check int) (name ^ ": fixture size") (Store.size store)
          (Store.size loaded);
        (* The first save migrates in place; the generation hint proves
           we just loaded the file, so no merge re-read is needed. *)
        let s = Persist.save ~known_generation:gen loaded ~path in
        Alcotest.(check int) (name ^ ": migration rewrites everything")
          (Store.size store) s.Persist.sv_appended;
        (match Persist.stat ~path with
        | Error e -> Alcotest.failf "%s: stat failed: %s" name e
        | Ok info ->
          Alcotest.(check string) (name ^ ": migrated format") "FFSTORE3"
            info.Persist.st_format);
        (match Persist.load ~path with
        | Error e -> Alcotest.failf "%s: reload failed: %s" name e
        | Ok (re, skipped2) ->
          Alcotest.(check int) (name ^ ": reload pristine") 0 skipped2;
          Alcotest.(check int) (name ^ ": reload size") (Store.size store)
            (Store.size re);
          check_records_match ~msg:(name ^ ": bit-identical after migration")
            (Store.records store) re))
    [ ("FFSTORE1", Persist.save_legacy_v1); ("FFSTORE2", Persist.save_legacy_v2) ]

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

let test_pipeline_bit_identity_across_formats () =
  (* The acceptance contract: an analysis served from a migrated
     FFSTORE2 fixture and one served from a fresh FFSTORE3 store are
     bit-identical to the from-scratch reference. *)
  with_temp_store @@ fun path ->
  let program = compile program_src in
  let store = Store.create () in
  let reference = Pipeline.analyze ~store quick_config program in
  Persist.save_legacy_v2 store ~path;
  (match Persist.load ~path with
  | Error e -> Alcotest.failf "v2 fixture load failed: %s" e
  | Ok (v2_store, _) ->
    let from_v2 = Pipeline.analyze ~store:v2_store quick_config program in
    Alcotest.(check int) "v2 fixture: everything reused" 0
      from_v2.Pipeline.sections_analyzed;
    check_bit_identical ~msg:"FFSTORE2 fixture" reference from_v2;
    (* Migrate to the sharded format and go around once more. *)
    let _ = Persist.save v2_store ~path in
    ());
  match Persist.load ~path with
  | Error e -> Alcotest.failf "v3 load failed: %s" e
  | Ok (v3_store, skipped) ->
    Alcotest.(check int) "v3 store pristine" 0 skipped;
    let from_v3 = Pipeline.analyze ~store:v3_store quick_config program in
    Alcotest.(check int) "v3 store: everything reused" 0
      from_v3.Pipeline.sections_analyzed;
    check_bit_identical ~msg:"migrated FFSTORE3" reference from_v3

let test_generation_hint_daemon_flow () =
  (* The daemon's save-on-exit over a legacy store: load (capturing the
     generation), accumulate, save with the hint. The hint skips the
     merge re-read; no record may be lost for it. *)
  with_temp_store @@ fun path ->
  let origin = Store.create () in
  List.iter (Store.add origin) (List.init 6 mk_record);
  Persist.save_legacy_v2 origin ~path;
  match Persist.load_v ~path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok (mine, _, gen) ->
    List.iter (Store.add mine) [ mk_record 100; mk_record 101 ];
    let s = Persist.save ~known_generation:gen mine ~path in
    Alcotest.(check int) "migration writes the union" 8 s.Persist.sv_appended;
    match Persist.load ~path with
    | Error e -> Alcotest.failf "reload failed: %s" e
    | Ok (loaded, skipped) ->
      Alcotest.(check int) "pristine" 0 skipped;
      Alcotest.(check int) "union size" 8 (Store.size loaded);
      check_records_match ~msg:"hinted migration" (Store.records mine) loaded

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
  (* Destroy the magic outright: the shard logs still identify
     themselves, so the store remains loadable. *)
  spit path ("XXXXXXXX" ^ String.sub manifest 8 (String.length manifest - 8));
  match Persist.load ~path with
  | Error e -> Alcotest.failf "destroyed manifest should salvage: %s" e
  | Ok (loaded, skipped) ->
    Alcotest.(check bool) "damage reported" true (skipped > 0);
    Alcotest.(check int) "every record salvaged" 12 (Store.size loaded);
    check_records_match ~msg:"destroyed manifest" records loaded

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
        ] );
      ( "layout",
        [
          Alcotest.test_case "sharded layout and stat" `Quick
            test_sharded_layout_and_stat;
          Alcotest.test_case "save is O(dirty)" `Quick test_save_is_o_dirty;
        ] );
      ( "migration",
        [
          Alcotest.test_case "v1/v2 differential" `Quick test_migration_differential;
          Alcotest.test_case "pipeline bit-identity across formats" `Quick
            test_pipeline_bit_identity_across_formats;
          Alcotest.test_case "generation hint daemon flow" `Quick
            test_generation_hint_daemon_flow;
        ] );
      ( "corruption",
        [
          QCheck_alcotest.to_alcotest prop_corrupt_shard_salvage;
          Alcotest.test_case "manifest corruption salvages from shards" `Quick
            test_manifest_corruption_salvages_from_shards;
          Alcotest.test_case "missing manifest salvages from shards" `Quick
            test_missing_manifest_salvages_from_shards;
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
