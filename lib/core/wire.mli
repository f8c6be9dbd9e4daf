(** The binary codec shared by the persistent store ({!Persist}) and the
    campaign checkpoint journal ({!Checkpoint}).

    Two layers:

    {ul
    {- {b value codecs}: little-endian writers into a [Buffer.t] and
       cursor-based readers for every analysis type that goes to disk —
       sites, equivalence classes, outcomes, campaign results,
       sensitivity matrices, full store records. Readers validate tags
       and lengths and raise {!Corrupt} rather than producing garbage.}
    {- {b CRC frames}: a self-describing record framing
       ([marker ∥ length ∥ crc32(payload) ∥ crc32(header) ∥ payload]) such
       that {!read_frames} can salvage every intact frame from a file with
       arbitrary truncation or flipped bytes. The header carries its own
       CRC, so a corrupted length cannot derail the reader: it rescans
       for the next marker and loses only the damaged frame.}} *)

(** {1 Writers} *)

val w_int64 : Buffer.t -> int64 -> unit
val w_int : Buffer.t -> int -> unit
val w_float : Buffer.t -> float -> unit
val w_string : Buffer.t -> string -> unit
(** Length-prefixed bytes (used by the serve protocol for program
    sources and rendered reports). *)

val w_array : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a array -> unit
val w_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit

(** {1 Readers} *)

exception Corrupt of string
(** Raised by readers on a tag, length, or bounds violation. Framed
    readers catch it per frame; it never escapes {!Persist.load} or
    {!Checkpoint.start}. *)

type cursor = {
  data : string;
  mutable pos : int;
}

val cursor : ?pos:int -> string -> cursor
val at_end : cursor -> bool
val r_int64 : cursor -> int64
val r_int : cursor -> int
val r_float : cursor -> float
val r_length : cursor -> string -> int
(** A non-negative, plausibility-bounded element count. *)

val r_string : cursor -> string -> string
(** Length-prefixed bytes; the length is bounds-checked against the
    remaining input before any allocation. *)

val r_array : cursor -> (cursor -> 'a) -> string -> 'a array
val r_list : cursor -> (cursor -> 'a) -> string -> 'a list

(** {1 Analysis-type codecs} *)

val w_site : Buffer.t -> Ff_inject.Site.t -> unit
val r_site : cursor -> Ff_inject.Site.t
val w_section_outcome : Buffer.t -> Ff_inject.Outcome.section_outcome -> unit
val r_section_outcome : cursor -> Ff_inject.Outcome.section_outcome

val w_campaign : Buffer.t -> Ff_inject.Campaign.section_result -> unit
(** The campaign's classes in order, each as pc, operand, bit, a member
    tag, a pilot tag and the outcome. The member tag is [0] when the
    class's member array equals the previous class's (the first class
    compares against the empty array) and [1] when the array follows in
    full as (section, dyn) pairs. The pilot tag is [0] when the pilot is
    canonical — the site of [members.(n/2)] with the class's own pc,
    operand and bit, which is what {!Ff_inject.Eqclass} builds — and [1]
    when the full site follows. *)

val r_campaign : cursor -> Ff_inject.Campaign.section_result
(** Inverse of {!w_campaign}. A repeated member array is the previous
    class's array itself, so classes that shared an array before
    encoding share it again after decoding. *)

val w_sensitivity : Buffer.t -> Ff_sensitivity.Sensitivity.t -> unit
val r_sensitivity : cursor -> Ff_sensitivity.Sensitivity.t
val w_key : Buffer.t -> Store.key -> unit
val r_key : cursor -> Store.key

(** {2 Record layout}

    A store record is [key ∥ layout marker ∥ campaign ∥ sensitivity ∥
    work]. The marker is a negative int64 constant naming layout 2, the
    layout {!w_campaign} describes. Layout 1 wrote every class's member
    array and pilot in full and had no marker: the campaign's section
    index sat in the marker's place, and it is never negative. *)

exception Stale
(** Raised by {!r_record} when the marker is missing: the record was
    written in another layout. A stale record is not corrupt and is never
    decoded by guesswork; {!Persist} counts it apart from corruption and
    treats its section as not stored, so it is recomputed. *)

val w_record : Buffer.t -> Store.section_record -> unit
val r_record : cursor -> Store.section_record
(** Raises {!Stale} on a record of another layout and {!Corrupt} on a
    malformed or truncated one. *)

(** {1 CRC frames} *)

val frame : string -> string
(** [frame payload] is the framed encoding of [payload]: a 28-byte header
    (marker, payload length, payload CRC-32, header CRC-32) followed by
    the payload bytes. *)

val add_frame : Buffer.t -> string -> unit

val read_frames : ?pos:int -> string -> string list * int
(** [read_frames data ~pos] scans [data] from [pos] and returns every
    payload whose header and payload CRCs validate, in file order, plus
    the number of corrupt regions skipped (a region is a damaged frame or
    a stretch of garbage up to the next intact frame; a cleanly truncated
    tail that removes whole frames leaves no trace here — callers that
    record an expected count, like {!Persist}, detect that themselves).
    Never raises on any input. *)
