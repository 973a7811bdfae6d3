(** Streaming I/O for real memory-access traces (trace format v2).

    Two interchangeable encodings of the same record stream
    [(tid, read|write, byte address)]:

    {b Text} — the CacheTrace-style line format, one access per line:
    {v
    # comments and blank lines are ignored; '#' starts a trailing comment
    R 0x1000
    W 0x2a40 3        # optional thread-id column (default 0)
    r 4096            # op is case-insensitive; addresses may be decimal
    v}
    The grammar the reader enforces: lines end at LF; ['#'] starts a
    comment that runs to the end of the line; space, tab, CR, LF and form
    feed are trimmed at the two ends of a line only; tokens are separated
    by spaces and tabs (so a CR or form feed inside a line is a token
    byte).  A record is an op ([R], [W], [r] or [w]), an address and an
    optional thread id; an address or thread id is any [int_of_string]
    literal within its range ([0x]/[0X], [0o], [0b], [0u] prefixes, ['_']
    separators and a sign are accepted).

    {b Binary} — a length-prefixed fast path for multi-GB traces:
    {v
    magic   8 bytes   "CACTIRPB"
    version u32 LE    1
    chunk*  u32 LE n  record count; n = 0 terminates the stream
            n records of 11 bytes each:
              flags u8     bit 0 = write (other bits must be zero)
              tid   u16 LE
              addr  u64 LE (must be < 2^62)
    v}

    Both readers stream in fixed-size chunks (64 KiB blocks of text, grown
    only to hold a longer line), so a trace of any length is parsed in
    constant memory.  {!iter_channel} allocates nothing per record beyond
    the closure call for binary records and for text records whose tokens
    are canonical: [0x]/[0X] and 1-15 hex digits or 1-18 decimal digits
    for the address, 1-5 decimal digits for the thread id.  Other spellings
    are converted through [int_of_string].  Addresses are byte addresses;
    thread ids are bounded by 65535. *)

exception Parse_error of { path : string; line : int; msg : string }
(** Malformed input, typed: bad op/address/tid on a text line, bad magic,
    version, flags, oversized chunk, truncation or trailing bytes in a
    binary stream.  [line] is the 1-based text line, or the 1-based record
    index (0 for framing problems) in a binary stream. *)

type format = Text | Binary

val format_to_string : format -> string

val detect_file : string -> format
(** Sniffs the first bytes of the file for the binary magic; anything else
    is treated as text.  Raises [Sys_error] on I/O failure. *)

val max_tid : int
(** 65535 — the largest encodable thread id. *)

val max_addr : int
(** [2^62 - 1] — the largest encodable byte address. *)

(** {1 Reading} *)

val iter_channel :
  path:string ->
  format ->
  in_channel ->
  f:(tid:int -> write:bool -> addr:int -> unit) ->
  int
(** Streams every record through [f] in trace order and returns the record
    count.  Raises {!Parse_error} on malformed input; [path] only labels
    errors. *)

val iter_file :
  ?format:format ->
  string ->
  f:(tid:int -> write:bool -> addr:int -> unit) ->
  int
(** Opens, {!detect_file}s when [format] is omitted, iterates, closes
    (also on exception). *)

(** {1 In-memory traces}

    For consumers that replay the same trace several times (the study's
    config matrix, benchmarks): two flat int arrays, no per-record boxing. *)

type packed = {
  n : int;
  addrs : int array;  (** byte addresses, [0 .. n-1] *)
  meta : int array;  (** [(tid lsl 1) lor write], [0 .. n-1] *)
}

val load : ?format:format -> string -> packed
val of_records : (int * bool * int) array -> packed
(** [(tid, write, addr)] records, validated against the encodable bounds. *)

val iter_packed :
  packed -> f:(tid:int -> write:bool -> addr:int -> unit) -> unit

(** {1 Zero-copy mapped traces}

    Binary trace files can be memory-mapped instead of stream-parsed: the
    replay path then reads records straight out of the page cache with no
    copy and no per-record channel I/O.  Only framing (magic, version,
    chunk table) is validated at map time — O(chunks); record contents are
    validated by the first full pass ({!iter_mapped} or {!bucket}). *)

type mapped

val map_binary : string -> mapped
(** Maps a binary trace file ([Unix.map_file], read-only) and indexes its
    chunk table.  Raises {!Parse_error} on bad magic/version, truncated or
    oversized chunks, or trailing bytes; [Unix.Unix_error] if the file
    cannot be opened. *)

val mapped_length : mapped -> int
(** Total record count (from the chunk table). *)

val iter_mapped :
  mapped -> f:(tid:int -> write:bool -> addr:int -> unit) -> unit
(** Streams every record through [f] in trace order, validating flags and
    address range exactly like the channel reader ({!Parse_error} labels
    the 1-based record index). *)

val off_meta : mapped -> int -> int
(** [(tid lsl 1) lor write] of the record at a byte offset taken from
    {!bucket}'s [offs].  Unchecked: offsets must come from {!bucket},
    which validated the record. *)

val off_addr : mapped -> int -> int
(** Byte address of the record at a {!bucket} byte offset (unchecked, see
    {!off_meta}). *)

(** {1 Sources and shard bucketing} *)

type source = Packed of packed | Mapped of mapped
(** A replayable trace: either parsed into flat arrays or mapped
    zero-copy.  {!load_source} picks [Mapped] for binary files. *)

val load_source : ?format:format -> string -> source

val source_length : source -> int

val iter_source :
  source -> f:(tid:int -> write:bool -> addr:int -> unit) -> unit

type buckets = {
  b_bits : int;
  shard_of : Bytes.t;  (** shard id of record [i] (merge walks this) *)
  seqs : int array array;
      (** per shard, ascending original record indices *)
  offs : int array array;
      (** per shard, the matching byte offsets ([Mapped] sources only;
          [[||]]s for [Packed]) *)
}

val max_shard_bits : int
(** 8 — shard ids must fit a byte. *)

val bucket : source -> line_shift:int -> bits:int -> buckets
(** One pass over [source] assigning record [i] to shard
    [(addr lsr line_shift) land (2^bits - 1)] and collecting each shard's
    record indices (and, for [Mapped], byte offsets) in trace order.
    For [Mapped] sources this pass also validates every record
    ({!Parse_error} as in {!iter_mapped}).  [bits] must be in
    [1 .. max_shard_bits]. *)

(** {1 Writing} *)

type writer

val open_writer : format -> out_channel -> writer
(** Binary: emits the header immediately.  Text: emits a comment header
    line. *)

val write_record : writer -> tid:int -> write:bool -> addr:int -> unit
(** Raises [Invalid_argument] when [tid]/[addr] exceed the encodable
    bounds. *)

val close_writer : writer -> unit
(** Flushes buffered records and, in binary, writes the zero-count
    terminator.  Does not close the underlying channel. *)

val convert :
  src:string -> ?src_format:format -> dst:string -> dst_format:format ->
  unit -> (int, Cacti_util.Diag.t) result
(** Streams [src] into [dst] re-encoded, returning the record count.  The
    conversion is lossless: converting back yields the identical record
    sequence (the qcheck roundtrip property in [test/test_replay.ml]).
    Returns [Error] (reason ["output_dir_missing"]) when [dst]'s directory
    does not exist instead of letting [open_out] raise a raw [Sys_error];
    malformed {e input} still raises {!Parse_error}. *)
