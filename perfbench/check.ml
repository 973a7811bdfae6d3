(* Output correctness: per-op failure accounting and the blessed digests.

   Every op is attempted once and fails at most once, whatever the number
   of checks it failed; [fail_ratio = failed / attempted].  At the default
   seed, outputs are also compared with digests recorded from a known-good
   build (perfbench/digests.json); they change only through [--bless],
   which prints the diff. *)

let default_seed = 1

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable shown : int;
  blessed : (string, string) Hashtbl.t option;
      (** [Some] at the default seed: the digests to compare against *)
  recorded : (string, string) Hashtbl.t;  (** digests seen this run *)
}

let create ~blessed =
  { attempted = 0; failed = 0; shown = 0; blessed; recorded = Hashtbl.create 64 }

let note t msg =
  if t.shown < 20 then prerr_endline ("perfbench: check failed: " ^ msg);
  t.shown <- t.shown + 1

(* Account for one op whose checks returned [errors]. *)
let op t errors =
  t.attempted <- t.attempted + 1;
  match errors with
  | [] -> ()
  | e :: _ ->
      t.failed <- t.failed + 1;
      note t e

(* Compare [digest] with the blessed value of [key]; [None] when it
   matches or when this run is not at the default seed. *)
let digest t key digest =
  Hashtbl.replace t.recorded key digest;
  match t.blessed with
  | None -> None
  | Some tbl -> (
      match Hashtbl.find_opt tbl key with
      | Some d when d = digest -> None
      | Some d -> Some (Printf.sprintf "%s: digest %s, blessed %s" key digest d)
      | None -> Some (Printf.sprintf "%s: no blessed digest" key))

(* ------------------------- the digest file --------------------------- *)

let load path =
  let tbl = Hashtbl.create 128 in
  (if Sys.file_exists path then
     match Cacti_util.Jsonx.parse (Harness.read_file path) with
     | Ok (Cacti_util.Jsonx.Obj kvs) ->
         List.iter
           (fun (k, v) ->
             match v with
             | Cacti_util.Jsonx.String s -> Hashtbl.replace tbl k s
             | _ -> ())
           kvs
     | _ -> failwith (path ^ ": not a JSON object of digests"));
  tbl

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Merge [recorded] into the file at [path], replacing every key under the
   given prefixes, print the diff on stderr and return the changed-key
   count. *)
let bless path ~prefixes recorded =
  let old = load path in
  let mine k = List.exists (fun p -> String.starts_with ~prefix:p k) prefixes in
  let merged = Hashtbl.create 128 in
  Hashtbl.iter (fun k v -> if not (mine k) then Hashtbl.replace merged k v) old;
  Hashtbl.iter (fun k v -> Hashtbl.replace merged k v) recorded;
  let changed = ref 0 in
  let keys =
    List.sort_uniq String.compare
      (List.map fst (sorted_bindings old) @ List.map fst (sorted_bindings merged))
  in
  List.iter
    (fun k ->
      match (Hashtbl.find_opt old k, Hashtbl.find_opt merged k) with
      | Some a, Some b when a = b -> ()
      | a, b ->
          incr changed;
          let show = Option.value ~default:"(none)" in
          Printf.eprintf "bless: %s\n  - %s\n  + %s\n" k (show a) (show b))
    keys;
  let body =
    sorted_bindings merged
    |> List.map (fun (k, v) -> (k, Cacti_util.Jsonx.String v))
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Cacti_util.Jsonx.to_string_pretty (Cacti_util.Jsonx.Obj body));
      output_char oc '\n');
  Printf.eprintf "bless: %d key(s) changed in %s\n" !changed path;
  !changed
