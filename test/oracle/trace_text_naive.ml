(* The split-based text-trace reader that [Mcreplay.Trace_io] used before
   its in-place scanner, kept verbatim as the reference: the differential
   property in test_replay.ml compares the record stream, the count and
   every [Parse_error] of the two over adversarial inputs. *)

open Mcreplay.Trace_io

let fail path line fmt =
  Printf.ksprintf (fun msg -> raise (Parse_error { path; line; msg })) fmt

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

let iter_text ~path ic ~f =
  let count = ref 0 in
  let lineno = ref 0 in
  (try
     while true do
       incr lineno;
       let raw = input_line ic in
       (* Cut a trailing comment, then trim. *)
       let body =
         match String.index_opt raw '#' with
         | Some i -> String.sub raw 0 i
         | None -> raw
       in
       let body = String.trim body in
       if body <> "" then begin
         let toks =
           String.split_on_char ' '
             (String.map (fun c -> if c = '\t' then ' ' else c) body)
           |> List.filter (fun s -> s <> "")
         in
         match toks with
         | [ op; addr ] | [ op; addr; _ ] when String.length op <> 1 ->
             ignore addr;
             fail path !lineno "expected R or W, got %S" op
         | [ op; addr ] | [ op; addr; _ ] ->
             let write =
               match op.[0] with
               | 'R' | 'r' -> false
               | 'W' | 'w' -> true
               | _ -> fail path !lineno "expected R or W, got %S" op
             in
             let addr = parse_addr path !lineno addr in
             let tid =
               match toks with
               | [ _; _; t ] -> parse_tid path !lineno t
               | _ -> 0
             in
             f ~tid ~write ~addr;
             incr count
         | _ -> fail path !lineno "malformed record %S" body
       end
     done
   with End_of_file -> ());
  !count
