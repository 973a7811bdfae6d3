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

    Both readers stream in fixed-size blocks (64 KiB of text, grown only to
    hold a longer line; 4096 binary records, whatever the chunk size), so
    a trace of any length is parsed in constant memory.  {!iter_channel} allocates nothing per record beyond
    the closure call for binary records and for text records whose tokens
    are canonical: [0x]/[0X] and 1-15 hex digits or 1-18 decimal digits
    for the address, 1-5 decimal digits for the thread id.  Other spellings
    are converted through [int_of_string].  Addresses are byte addresses;
    thread ids are bounded by 65535.

    A trace loaded for replay ({!source}) has one form whatever its
    encoding: the binary records above — a binary file as it is on disk,
    a text file parsed into an in-memory image of the same layout.
    Consumers stream it ({!iter_source}) or split it into per-thread
    streams for the study engine ({!thread_gens}); the record layout
    never leaves this module. *)

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

(** {1 Sources}

    A replayable trace, for consumers that replay the same trace several
    times (sharded replay, the study's config matrix, benchmarks).  Every
    source holds the binary layout's 11-byte records.  A binary file stays
    on disk: loading it reads only its framing (magic, version, chunk
    headers), and every pass ({!iter_source}, and so {!thread_gens} and
    every replay) streams it through the channel reader, validating every
    record.  A text file or {!of_records} fills an in-memory image of the
    same layout, which every pass decodes with the same checks.

    A binary file that changes after it is loaded is refused: a pass that
    finds it truncated, or holding another record count, raises
    {!Parse_error} before passing more records than were loaded. *)

type source

val load_source : ?format:format -> string -> source
(** Counts a binary file's records, seeking from chunk header to chunk
    header, or parses a text file ({!detect_file} when [format] is
    omitted).  Raises {!Parse_error} on malformed text or binary framing
    (bad magic/version, truncated or oversized chunks, trailing bytes),
    [Sys_error] if the file cannot be opened. *)

val of_records : (int * bool * int) array -> source
(** [(tid, write, addr)] records, validated against the encodable bounds
    ([Invalid_argument]). *)

val source_length : source -> int

val iter_source :
  source -> f:(tid:int -> write:bool -> addr:int -> unit) -> unit
(** Streams every record through [f] in trace order, validating flags and
    address range exactly like the channel reader ({!Parse_error} labels
    the 1-based record index); a binary file is read through
    {!iter_channel}'s reader, and a record count other than the loaded
    one raises {!Parse_error} (see above).  Allocates nothing per record:
    a pass over a binary file allocates its 44 KiB block buffer and a few
    words per chunk. *)

(** {1 Driving the study engine} *)

val thread_gens :
  source -> (thread_id:int -> Mcsim.Workload.gen, Cacti_util.Diag.t) result
(** The trace as the address generators of {!Mcsim.Engine.run}'s
    [make_gen]: engine thread [i] replays, wrapping at the end, the
    records of the [(i mod D)]-th smallest of the [D] distinct thread ids
    in the trace, in trace order, each as the 64-byte line
    [addr / Mcsim.Study_config.line_bytes] and its write flag.  One
    packed array per thread id is filled up front (errors as in
    {!iter_source}); each call of the returned function starts a fresh
    {!Mcsim.Workload.replay} over its array, so it can serve every cell
    of a study.  [Error] (reason ["empty_trace"]) when the trace has no
    records. *)

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
