type align = Left | Right

type row = Cells of string list | Sep

type t = {
  headers : string list;
  align : align list;
  mutable rows : row list; (* reverse order *)
  ncols : int;
}

let create ?align headers =
  let ncols = List.length headers in
  let align =
    match align with
    | Some a -> a
    | None -> List.mapi (fun i _ -> if i = 0 then Left else Right) headers
  in
  { headers; align; rows = []; ncols }

let pad_to n cells =
  let len = List.length cells in
  if len >= n then cells else cells @ List.init (n - len) (fun _ -> "")

let add_row t cells = t.rows <- Cells (pad_to t.ncols cells) :: t.rows
let add_sep t = t.rows <- Sep :: t.rows

let render t =
  let rows = List.rev t.rows in
  let widths = Array.make t.ncols 0 in
  let measure cells =
    List.iteri
      (fun i c ->
        if i < t.ncols then widths.(i) <- Int.max widths.(i) (String.length c))
      cells
  in
  measure t.headers;
  List.iter (function Cells c -> measure c | Sep -> ()) rows;
  let buf = Buffer.create 1024 in
  let align_at i =
    match List.nth_opt t.align i with Some a -> a | None -> Right
  in
  let emit_cells cells =
    List.iteri
      (fun i c ->
        if i > 0 then Buffer.add_string buf "  ";
        let w = widths.(i) in
        let pad = String.make (Int.max 0 (w - String.length c)) ' ' in
        match align_at i with
        | Left -> Buffer.add_string buf (c ^ pad)
        | Right -> Buffer.add_string buf (pad ^ c))
      cells;
    Buffer.add_char buf '\n'
  in
  let total_width =
    Array.fold_left ( + ) 0 widths + (2 * Int.max 0 (t.ncols - 1))
  in
  let sep () = Buffer.add_string buf (String.make total_width '-' ^ "\n") in
  emit_cells t.headers;
  sep ();
  List.iter (function Cells c -> emit_cells c | Sep -> sep ()) rows;
  Buffer.contents buf

let print t =
  print_string (render t);
  print_newline ()

let cell_f ?(dec = 3) x =
  let s = Printf.sprintf "%.*f" dec x in
  (* normalize negative zero *)
  if float_of_string s = 0.0 then Printf.sprintf "%.*f" dec 0.0 else s

let cell_pct r =
  let pct = r *. 100. in
  Printf.sprintf "%+.1f%%" pct
