type t = { mutable acc : int64 }

let offset_basis = 0xCBF29CE484222325L
let prime = 0x100000001B3L

let create () = { acc = offset_basis }

let add_byte t b =
  t.acc <- Int64.mul (Int64.logxor t.acc (Int64.of_int (b land 0xFF))) prime

let add_int64 t v =
  for i = 0 to 7 do
    add_byte t (Int64.to_int (Int64.shift_right_logical v (8 * i)))
  done

let add_int t v = add_int64 t (Int64.of_int v)
let add_float t v = add_int64 t (Int64.bits_of_float v)

let add_string t s =
  add_int t (String.length s);
  String.iter (fun c -> add_byte t (Char.code c)) s

let value t = t.acc

let of_string s =
  let t = create () in
  add_string t s;
  value t

let combine a b =
  let t = create () in
  add_int64 t a;
  add_int64 t b;
  value t

(* --- CRC-32 (IEEE 802.3, reflected) ---------------------------------------- *)

(* Slicing-by-8: table [k] (entries [256k .. 256k+255]) advances a byte
   through [k] further zero bytes, so eight input bytes fold into the
   remainder with eight independent lookups instead of a chain of eight
   dependent ones. Table 0 is the classic bytewise table. *)
let crc_tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.((256 * (k - 1)) + n) in
         t.((256 * k) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
       done
     done;
     t)

let crc32 ?(pos = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - pos in
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Hashing.crc32";
  let t = Lazy.force crc_tables in
  let byte i = Char.code (String.unsafe_get s i) in
  (* Every index below is in bounds: [pos, pos + len) was checked above
     and table indices are masked to a byte within their table. *)
  let tbl k x = Array.unsafe_get t ((256 * k) + (x land 0xFF)) in
  let c = ref 0xFFFFFFFF in
  let i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    let j = !i in
    let lo = !c lxor (Int32.to_int (String.get_int32_le s j) land 0xFFFFFFFF) in
    c :=
      tbl 7 lo
      lxor tbl 6 (lo lsr 8)
      lxor tbl 5 (lo lsr 16)
      lxor tbl 4 (lo lsr 24)
      lxor tbl 3 (byte (j + 4))
      lxor tbl 2 (byte (j + 5))
      lxor tbl 1 (byte (j + 6))
      lxor tbl 0 (byte (j + 7));
    i := j + 8
  done;
  for j = !i to stop - 1 do
    c := tbl 0 (!c lxor byte j) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF
