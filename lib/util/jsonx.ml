type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let num f = if Float.is_finite f then Float f else Null

(* ------------------------------ printing ------------------------------ *)

(* Shortest decimal that parses back bit-exactly; always contains '.' or
   'e' so the value re-parses as a float, not an int. *)
let float_repr f =
  let s =
    let s15 = Printf.sprintf "%.15g" f in
    if float_of_string s15 = f then s15 else Printf.sprintf "%.17g" f
  in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
  else s ^ ".0"

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let to_string v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
        Buffer.add_string buf
          (if Float.is_finite f then float_repr f else "null")
    | String s -> escape_string buf s
    | List l ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            go x)
          l;
        Buffer.add_char buf ']'
    | Obj kvs ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_char buf ',';
            escape_string buf k;
            Buffer.add_char buf ':';
            go x)
          kvs;
        Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

(* Sort object keys recursively (byte order, stable) so two spellings of
   the same object print identically; array order and number spellings
   are preserved. *)
let rec canonicalize = function
  | Obj kvs ->
      Obj
        (List.stable_sort
           (fun (a, _) (b, _) -> String.compare a b)
           (List.map (fun (k, v) -> (k, canonicalize v)) kvs))
  | List l -> List (List.map canonicalize l)
  | v -> v

let to_canonical_string v = to_string (canonicalize v)

let to_string_pretty v =
  let buf = Buffer.create 256 in
  let pad n = Buffer.add_string buf (String.make n ' ') in
  let rec go indent = function
    | (Null | Bool _ | Int _ | Float _ | String _) as v ->
        Buffer.add_string buf (to_string v)
    | List [] -> Buffer.add_string buf "[]"
    | List l ->
        Buffer.add_string buf "[\n";
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_string buf ",\n";
            pad (indent + 2);
            go (indent + 2) x)
          l;
        Buffer.add_char buf '\n';
        pad indent;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj kvs ->
        Buffer.add_string buf "{\n";
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_string buf ",\n";
            pad (indent + 2);
            escape_string buf k;
            Buffer.add_string buf ": ";
            go (indent + 2) x)
          kvs;
        Buffer.add_char buf '\n';
        pad indent;
        Buffer.add_char buf '}'
  in
  go 0 v;
  Buffer.contents buf

(* ------------------------------ parsing ------------------------------- *)

exception Err of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let err msg = raise (Err (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> err (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (
      pos := !pos + l;
      v)
    else err (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then err "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> err "bad hex digit in \\u escape"
      in
      v := (!v * 16) + d;
      advance ()
    done;
    !v
  in
  let add_utf8 buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then (
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F))))
    else if cp < 0x10000 then (
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F))))
    else (
      Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F))))
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then err "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' -> (
          advance ();
          if !pos >= n then err "unterminated escape";
          let c = s.[!pos] in
          advance ();
          match c with
          | '"' -> Buffer.add_char buf '"'; go ()
          | '\\' -> Buffer.add_char buf '\\'; go ()
          | '/' -> Buffer.add_char buf '/'; go ()
          | 'n' -> Buffer.add_char buf '\n'; go ()
          | 'r' -> Buffer.add_char buf '\r'; go ()
          | 't' -> Buffer.add_char buf '\t'; go ()
          | 'b' -> Buffer.add_char buf '\b'; go ()
          | 'f' -> Buffer.add_char buf '\012'; go ()
          | 'u' ->
              let cp = hex4 () in
              let cp =
                (* surrogate pair *)
                if cp >= 0xD800 && cp <= 0xDBFF then
                  if
                    !pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                  then (
                    pos := !pos + 2;
                    let lo = hex4 () in
                    if lo >= 0xDC00 && lo <= 0xDFFF then
                      0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
                    else err "invalid low surrogate")
                  else err "unpaired high surrogate"
                else cp
              in
              add_utf8 buf cp;
              go ()
          | _ -> err (Printf.sprintf "invalid escape \\%c" c))
      | c when Char.code c < 0x20 -> err "raw control byte in string"
      | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let digits () =
      let d0 = !pos in
      while !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false do
        advance ()
      done;
      if !pos = d0 then err "expected digit";
      d0
    in
    (* RFC 8259: no leading zeros in the integer part *)
    let d0 = digits () in
    if !pos - d0 > 1 && s.[d0] = '0' then err "leading zero";
    let is_float = ref false in
    if peek () = Some '.' then (
      is_float := true;
      advance ();
      ignore (digits ()));
    (match peek () with
    | Some ('e' | 'E') ->
        is_float := true;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        ignore (digits ())
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !is_float then Float (float_of_string text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> err "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (
          advance ();
          Obj [])
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((k, v) :: acc))
            | _ -> err "expected ',' or '}'"
          in
          members []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (
          advance ();
          List [])
        else
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                List (List.rev (v :: acc))
            | _ -> err "expected ',' or ']'"
          in
          elements []
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> err (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then err "trailing garbage after value";
    v
  with
  | v -> Ok v
  | exception Err (p, msg) ->
      Error (Printf.sprintf "JSON parse error at offset %d: %s" p msg)

(* ------------------------------ accessors ----------------------------- *)

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let get_string = function String s -> Some s | _ -> None
let get_bool = function Bool b -> Some b | _ -> None

let get_int = function
  | Int i -> Some i
  | Float f
    when Float.is_integer f && Float.abs f <= 1e15 ->
      Some (int_of_float f)
  | _ -> None

let get_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None
