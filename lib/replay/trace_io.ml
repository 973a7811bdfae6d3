exception Parse_error of { path : string; line : int; msg : string }

let () =
  Printexc.register_printer (function
    | Parse_error { path; line; msg } ->
        Some (Printf.sprintf "%s:%d: %s" path line msg)
    | _ -> None)

type format = Text | Binary

let format_to_string = function Text -> "text" | Binary -> "binary"

let magic = "CACTIRPB"
let version = 1
let record_bytes = 11
let max_tid = 0xFFFF
let max_addr = (1 lsl 62) - 1

(* Chunk sizing: bounds the writer's buffering; the reader takes any
   chunk up to the maximum a block at a time ([block_records]), so
   multi-GB traces stream in constant memory. *)
let chunk_records = 65536
let max_chunk_records = 1 lsl 22

let fail path line fmt =
  Printf.ksprintf (fun msg -> raise (Parse_error { path; line; msg })) fmt

let detect_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let m = String.length magic in
      let buf = Bytes.create m in
      let n = input ic buf 0 m in
      if n = m && Bytes.to_string buf = magic then Binary else Text)

(* ---------------- text reader ---------------- *)

let parse_addr path lineno s =
  let v =
    match int_of_string_opt s with
    | Some v -> v
    | None -> fail path lineno "address %S is not a number" s
  in
  if v < 0 || v > max_addr then
    fail path lineno "address %S out of range [0, 2^62)" s
  else v

let parse_tid path lineno s =
  match int_of_string_opt s with
  | Some v when v >= 0 && v <= max_tid -> v
  | Some v -> fail path lineno "thread id %d out of range [0, %d]" v max_tid
  | None -> fail path lineno "thread id %S is not an integer" s

(* The scanner below works on a block of whole lines whose last byte is
   '\n', so every loop stops at a '\n' without a bounds check.  A line is
   cut at '#', trimmed of space, tab, CR and form feed at both ends, and
   split into tokens at spaces and tabs. *)

let rec skip_blanks b i =
  match Bytes.unsafe_get b i with
  | ' ' | '\t' | '\r' | '\012' -> skip_blanks b (i + 1)
  | _ -> i

let rec skip_seps b i =
  match Bytes.unsafe_get b i with ' ' | '\t' -> skip_seps b (i + 1) | _ -> i

(* End of the token starting at [i]; every byte above '#' is a token
   byte, which keeps the common case to one comparison. *)
let rec token_end b i =
  let c = Bytes.unsafe_get b i in
  if c > '#' then token_end b (i + 1)
  else
    match c with ' ' | '\t' | '\n' | '#' -> i | _ -> token_end b (i + 1)

let rec line_end b i =
  if Bytes.unsafe_get b i = '\n' then i else line_end b (i + 1)

(* [e] less the CR and form-feed bytes that end the token [s, e). *)
let rec trim_end b s e =
  if e > s then
    match Bytes.unsafe_get b (e - 1) with
    | '\r' | '\012' -> trim_end b s (e - 1)
    | _ -> e
  else e

(* Value of the digits [s, e) in base 10 or 16, or -1 if one is not a
   digit of that base. *)
let rec dec_digits b s e acc =
  if s = e then acc
  else
    match Bytes.unsafe_get b s with
    | '0' .. '9' as c -> dec_digits b (s + 1) e ((acc * 10) + Char.code c - 48)
    | _ -> -1

(* Base-16 value of every byte, 255 for a non-digit: a lookup keeps the
   per-digit work free of branches on whether the digit is a letter. *)
let hex_value =
  String.init 256 (fun i ->
      match Char.chr i with
      | '0' .. '9' -> Char.chr (i - 48)
      | 'a' .. 'f' -> Char.chr (i - 87)
      | 'A' .. 'F' -> Char.chr (i - 55)
      | _ -> '\255')

let rec hex_digits b s e acc =
  if s = e then acc
  else
    let c = Bytes.unsafe_get b s in
    let d = Char.code (String.unsafe_get hex_value (Char.code c)) in
    if d > 15 then -1 else hex_digits b (s + 1) e ((acc lsl 4) lor d)

(* Canonical tokens convert in place and are in range by their length:
   0x/0X with 1-15 hex digits (< 2^60) or 1-18 decimal digits (< 10^18)
   for an address, 1-5 decimal digits for a tid.  Anything else is -1 and
   goes to [parse_addr]/[parse_tid], which accept every [int_of_string]
   literal and word every diagnostic. *)
let canonical_addr b s e =
  let n = e - s in
  if n > 2 && Bytes.unsafe_get b s = '0'
     && (match Bytes.unsafe_get b (s + 1) with 'x' | 'X' -> true | _ -> false)
  then if n <= 17 then hex_digits b (s + 2) e 0 else -1
  else if n <= 18 then dec_digits b s e 0
  else -1

let canonical_tid b s e =
  if e - s <= 5 then
    let v = dec_digits b s e 0 in
    if v <= max_tid then v else -1
  else -1

let sub b s e = Bytes.sub_string b s (e - s)

let text_block = 65536

let iter_text ~path ic ~f =
  let buf = ref (Bytes.create text_block) in
  let len = ref 0 in
  let count = ref 0 and lineno = ref 0 in
  let eof = ref false in
  while not !eof do
    (* [0, len) holds the start of a line with no '\n' yet; read more,
       growing the buffer only when that line fills it. *)
    if !len = Bytes.length !buf then buf := Bytes.extend !buf 0 !len;
    let held = !len in
    let got = input ic !buf held (Bytes.length !buf - held) in
    len := held + got;
    if got = 0 then begin
      eof := true;
      (* a last line without a newline still ends at one *)
      if held > 0 then begin
        if held = Bytes.length !buf then buf := Bytes.extend !buf 0 1;
        Bytes.set !buf held '\n';
        len := held + 1
      end
    end;
    let b = !buf in
    let lim = ref (!len - 1) in
    while !lim >= held && Bytes.unsafe_get b !lim <> '\n' do decr lim done;
    let lim = if !lim >= held then !lim else -1 in
    let p = ref 0 in
    while !p <= lim do
      incr lineno;
      let bs = skip_blanks b !p in
      match Bytes.unsafe_get b bs with
      | '\n' -> p := bs + 1
      | '#' -> p := line_end b bs + 1
      | _ ->
          (* Walk the runs of token bytes.  The tokens are the runs up to
             the last one holding a byte other than CR or form feed; the
             trimmed line is [bs, be), [be] following that byte. *)
          let op_e = ref 0 and addr_s = ref 0 and addr_e = ref 0 in
          let tid_s = ref 0 and ntok = ref 0 and nrun = ref 0 and be = ref 0 in
          let i = ref bs in
          while !i >= 0 do
            let s = !i in
            let e = token_end b s in
            (match !nrun with
            | 0 -> op_e := e
            | 1 -> addr_s := s; addr_e := e
            | 2 -> tid_s := s
            | _ -> ());
            incr nrun;
            let t = trim_end b s e in
            if t > s then begin
              ntok := !nrun;
              be := t
            end;
            let k = skip_seps b e in
            match Bytes.unsafe_get b k with
            | '\n' -> p := k + 1; i := -1
            | '#' -> p := line_end b k + 1; i := -1
            | _ -> i := k
          done;
          let ntok = !ntok and be = !be in
          if ntok < 2 || ntok > 3 then
            fail path !lineno "malformed record %S" (sub b bs be);
          let write =
            match Bytes.unsafe_get b bs with
            | ('R' | 'r') when !op_e = bs + 1 -> false
            | ('W' | 'w') when !op_e = bs + 1 -> true
            | _ -> fail path !lineno "expected R or W, got %S" (sub b bs !op_e)
          in
          let addr_s = !addr_s and addr_e = if ntok = 2 then be else !addr_e in
          let addr =
            let v = canonical_addr b addr_s addr_e in
            if v >= 0 then v else parse_addr path !lineno (sub b addr_s addr_e)
          in
          let tid =
            if ntok = 2 then 0
            else
              let v = canonical_tid b !tid_s be in
              if v >= 0 then v else parse_tid path !lineno (sub b !tid_s be)
          in
          f ~tid ~write ~addr;
          incr count
    done;
    if lim >= 0 then begin
      (* keep the unfinished line *)
      let rest = !len - (lim + 1) in
      Bytes.blit b (lim + 1) b 0 rest;
      len := rest
    end
  done;
  !count

(* ---------------- record coding ---------------- *)

(* A record's tid and address are read with one 16-bit and one 64-bit
   load, unaligned and unchecked: [decode] reads whole records inside
   its buffer.  [big_endian ()] is a compile-time constant, so the swap
   costs nothing on little-endian hosts. *)
external big_endian : unit -> bool = "%big_endian"
external bswap16 : int -> int = "%bswap16"
external bswap64 : int64 -> int64 = "%bswap_int64"
external bytes_get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"
external bytes_get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let[@inline] le16 v = if big_endian () then bswap16 v else v
let[@inline] le64 v = if big_endian () then bswap64 v else v

(* The one record decoder: passes the [k] records at the start of [buf]
   to [f], each checked for a flag byte of 0 or 1 and an address whose
   top two bits are clear.  [first], the 0-based trace index of the first
   record, labels errors. *)
let decode path buf ~first k ~f =
  for r = 0 to k - 1 do
    let o = r * record_bytes in
    let flags = Char.code (Bytes.unsafe_get buf o) in
    if flags land lnot 1 <> 0 then
      fail path (first + r + 1) "invalid flag byte 0x%02x" flags;
    let a = le64 (bytes_get64u buf (o + 3)) in
    if Int64.to_int (Int64.shift_right_logical a 62) <> 0 then
      fail path (first + r + 1) "address 0x%Lx out of range [0, 2^62)" a;
    f ~tid:(le16 (bytes_get16u buf (o + 1))) ~write:(flags = 1)
      ~addr:(Int64.to_int a)
  done

(* Encodes one record at byte offset [o], as [decode] reads it. *)
let set_record buf o ~tid ~write ~addr =
  Bytes.set_uint8 buf o (Bool.to_int write);
  Bytes.set_uint16_le buf (o + 1) tid;
  Bytes.set_int64_le buf (o + 3) (Int64.of_int addr)

let changed path n =
  fail path 0 "the trace changed since it was loaded with %d records" n

(* ---------------- binary reader ---------------- *)

let read_u32 path ic what =
  let b = Bytes.create 4 in
  (try really_input ic b 0 4
   with End_of_file -> fail path 0 "truncated stream: missing %s" what);
  Int32.to_int (Bytes.get_int32_le b 0) land 0xFFFFFFFF

let read_header path ic =
  let m = String.length magic in
  let hdr = Bytes.create m in
  (try really_input ic hdr 0 m
   with End_of_file -> fail path 0 "truncated stream: missing magic");
  if Bytes.to_string hdr <> magic then
    fail path 0 "bad magic (not a cacti-d binary trace)";
  let v = read_u32 path ic "version" in
  if v <> version then fail path 0 "unsupported binary trace version %d" v

(* Records are read and decoded a block at a time, whatever the chunk
   size, so the reader's buffer is 44 KiB. *)
let block_records = 4096

(* Streams a binary trace of at most [limit] records: a chunk that would
   pass the limit raises before any of its records reach [f]. *)
let iter_binary ~path ~limit ic ~f =
  read_header path ic;
  let buf = Bytes.create (block_records * record_bytes) in
  let count = ref 0 in
  let finished = ref false in
  while not !finished do
    let n = read_u32 path ic "chunk header" in
    if n = 0 then begin
      (* Terminator: the stream must end exactly here, so a truncated or
         concatenated file cannot silently pass as complete. *)
      (match input_char ic with
      | _ -> fail path 0 "trailing bytes after the stream terminator"
      | exception End_of_file -> ());
      finished := true
    end
    else begin
      if n > max_chunk_records then
        fail path 0 "oversized chunk (%d records, max %d)" n
          max_chunk_records;
      if n > limit - !count then changed path limit;
      let first = !count in
      let last = first + n in
      while !count < last do
        let k = Int.min (last - !count) block_records in
        (try really_input ic buf 0 (k * record_bytes)
         with End_of_file ->
           fail path (first + 1) "truncated stream: incomplete chunk");
        decode path buf ~first:!count k ~f;
        count := !count + k
      done
    end
  done;
  !count

let iter_channel ~path format ic ~f =
  match format with
  | Text -> iter_text ~path ic ~f
  | Binary -> iter_binary ~path ~limit:max_int ic ~f

let with_in path k =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> k ic)

let iter_file ?format path ~f =
  let format =
    match format with Some fmt -> fmt | None -> detect_file path
  in
  with_in path (fun ic -> iter_channel ~path format ic ~f)

(* ---------------- sources ---------------- *)

(* Every replayable trace is the binary layout's records: a binary file,
   streamed on every pass, or an in-memory image of them that a text file
   or [of_records] fills. *)
type data =
  | File  (** a binary file *)
  | Image of Bytes.t  (** [n] records from byte 0 *)

type source = {
  data : data;
  path : string;  (** labels validation errors *)
  n : int;
}

(* Walks a binary trace's chunk headers through a channel, seeking over
   the records, to count them.  Only framing is validated here, in
   O(chunks); records are validated by every pass ([iter_source]). *)
let count_binary path =
  with_in path (fun ic ->
      let size = in_channel_length ic in
      read_header path ic;
      let rec walk pos first =
        let n = read_u32 path ic "chunk header" in
        if n = 0 then begin
          if pos + 4 <> size then
            fail path 0 "trailing bytes after the stream terminator";
          first
        end
        else begin
          if n > max_chunk_records then
            fail path 0 "oversized chunk (%d records, max %d)" n
              max_chunk_records;
          let next = pos + 4 + (n * record_bytes) in
          if next > size then
            fail path (first + 1) "truncated stream: incomplete chunk";
          seek_in ic next;
          walk next (first + n)
        end
      in
      { data = File; path; n = walk (String.length magic + 4) 0 })

let check_record tid write addr =
  ignore write;
  if tid < 0 || tid > max_tid then
    invalid_arg (Printf.sprintf "Trace_io: thread id %d out of range" tid);
  if addr < 0 || addr > max_addr then
    invalid_arg (Printf.sprintf "Trace_io: address 0x%x out of range" addr)

(* A text file parsed into an image that doubles as it fills. *)
let load_text path =
  let buf = ref (Bytes.create (4096 * record_bytes)) in
  let n = ref 0 in
  let push ~tid ~write ~addr =
    let o = !n * record_bytes in
    if o = Bytes.length !buf then buf := Bytes.extend !buf 0 o;
    set_record !buf o ~tid ~write ~addr;
    incr n
  in
  ignore (iter_file ~format:Text path ~f:push : int);
  { data = Image !buf; path; n = !n }

let of_records recs =
  let buf = Bytes.create (Array.length recs * record_bytes) in
  Array.iteri
    (fun i (tid, write, addr) ->
      check_record tid write addr;
      set_record buf (i * record_bytes) ~tid ~write ~addr)
    recs;
  { data = Image buf; path = "<records>"; n = Array.length recs }

let load_source ?format path =
  let format =
    match format with Some fmt -> fmt | None -> detect_file path
  in
  match format with Binary -> count_binary path | Text -> load_text path

let source_length src = src.n

let iter_source src ~f =
  match src.data with
  | File ->
      let n = with_in src.path (iter_binary ~path:src.path ~limit:src.n ~f) in
      if n <> src.n then changed src.path src.n
  | Image buf -> decode src.path buf ~first:0 src.n ~f

(* ---------------- engine streams ---------------- *)

(* Two passes: the first counts each thread id's records, so the second
   fills exactly sized arrays. *)
let thread_gens src =
  let counts = Array.make (max_tid + 1) 0 in
  iter_source src ~f:(fun ~tid ~write:_ ~addr:_ ->
      counts.(tid) <- counts.(tid) + 1);
  let tids =
    List.filter (fun tid -> counts.(tid) > 0) (List.init (max_tid + 1) Fun.id)
  in
  if tids = [] then
    Error
      (Cacti_util.Diag.errorf ~component:"replay" ~reason:"empty_trace"
         "%s: the trace has no records to drive the engine with" src.path)
  else begin
    let refs =
      Array.of_list (List.map (fun tid -> Array.make counts.(tid) 0) tids)
    in
    let rank = Array.make (max_tid + 1) 0 in
    List.iteri (fun k tid -> rank.(tid) <- k) tids;
    let fill = Array.make (Array.length refs) 0 in
    let shift = Cacti_util.Floatx.clog2 Mcsim.Study_config.line_bytes in
    iter_source src ~f:(fun ~tid ~write ~addr ->
        let k = rank.(tid) in
        (* a file rewritten between the passes cannot overrun an array *)
        if fill.(k) = counts.(tid) then changed src.path src.n;
        refs.(k).(fill.(k)) <- ((addr lsr shift) lsl 1) lor Bool.to_int write;
        fill.(k) <- fill.(k) + 1);
    let d = Array.length refs in
    Ok (fun ~thread_id -> Mcsim.Workload.replay refs.(thread_id mod d))
  end

(* ---------------- writers ---------------- *)

type writer = {
  oc : out_channel;
  wformat : format;
  buf : Bytes.t;  (** one binary chunk *)
  mutable buffered : int;  (** records in [buf] *)
  mutable closed : bool;
}

let flush_chunk w =
  if w.buffered > 0 then begin
    let hdr = Bytes.create 4 in
    Bytes.set_int32_le hdr 0 (Int32.of_int w.buffered);
    output_bytes w.oc hdr;
    output w.oc w.buf 0 (w.buffered * record_bytes);
    w.buffered <- 0
  end

let open_writer format oc =
  (match format with
  | Text -> output_string oc "# cacti-d replay trace v2\n"
  | Binary ->
      output_string oc magic;
      let hdr = Bytes.create 4 in
      Bytes.set_int32_le hdr 0 (Int32.of_int version);
      output_bytes oc hdr);
  {
    oc;
    wformat = format;
    buf = Bytes.create (chunk_records * record_bytes);
    buffered = 0;
    closed = false;
  }

let write_record w ~tid ~write ~addr =
  if w.closed then invalid_arg "Trace_io.write_record: writer closed";
  check_record tid write addr;
  match w.wformat with
  | Text ->
      output_char w.oc (if write then 'W' else 'R');
      output_string w.oc (Printf.sprintf " 0x%x" addr);
      if tid <> 0 then output_string w.oc (Printf.sprintf " %d" tid);
      output_char w.oc '\n'
  | Binary ->
      let off = w.buffered * record_bytes in
      Bytes.set_uint8 w.buf off (Bool.to_int write);
      Bytes.set_uint16_le w.buf (off + 1) tid;
      Bytes.set_int64_le w.buf (off + 3) (Int64.of_int addr);
      w.buffered <- w.buffered + 1;
      if w.buffered = chunk_records then flush_chunk w

let close_writer w =
  if not w.closed then begin
    (match w.wformat with
    | Text -> ()
    | Binary ->
        flush_chunk w;
        let hdr = Bytes.create 4 in
        Bytes.set_int32_le hdr 0 0l;
        output_bytes w.oc hdr);
    flush w.oc;
    w.closed <- true
  end

let convert ~src ?src_format ~dst ~dst_format () =
  let dir = Filename.dirname dst in
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error
      (Cacti_util.Diag.errorf ~component:"replay" ~reason:"output_dir_missing"
         "cannot write %s: directory %s does not exist" dst dir)
  else begin
    let src_format =
      match src_format with Some fmt -> fmt | None -> detect_file src
    in
    let ic = open_in_bin src in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let oc = open_out_bin dst in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            let w = open_writer dst_format oc in
            let n =
              iter_channel ~path:src src_format ic ~f:(fun ~tid ~write ~addr ->
                  write_record w ~tid ~write ~addr)
            in
            close_writer w;
            Ok n))
  end
