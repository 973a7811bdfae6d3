(* Export cross-reference gate for lib/.

   Reads the .cmt and .cmti files that `dune build @check` leaves under
   _build/default, finds every [val] declared in lib/**/*.mli and records
   which other compilation units reference it.  A referencing unit belongs
   to one of three groups by the directory of its source: lib/ and bin/
   are production; bench/, perfbench/ and examples/ are users; test/ is
   tests.  Each [val] takes the first group that references it, or
   "unreferenced" when no other unit does.

   The gate fails (exit 1) on an unreferenced [val], on a test-only [val]
   that is not in the allowlist, and on a stale allowlist entry: one whose
   [val] is gone or has a production or user caller.  The allowlist can
   therefore only shrink.  Run it from the repository root after
   `dune build @all @check`:

     dune exec tools/xref/xref.exe

   Allowlist format (tools/xref/allowlist): one [Module.name  kind: text]
   per line, [kind] one of [reason_kinds]; blank lines and lines starting
   with '#' are ignored.

   The same pass also fails on every reference from a lib/ unit to
   [Stdlib.max] or [Stdlib.min], applied or passed as a value
   ([List.fold_left max 0 l]), and prints its file:line:column.  Those
   two are polymorphic: every call goes through the runtime's generic
   compare, and on floats boxes both arguments.  lib/ uses
   [Int.max]/[Int.min] on ints and [Cacti_util.Floatx.max]/[min] on
   floats, which return the same bits as the Stdlib functions, nan and
   -0. included. *)

let build_root = "_build/default"
let allowlist_file = "tools/xref/allowlist"

let reason_kinds = [ "fault-hook"; "oracle"; "parser"; "audit" ]

type group = Production | Users | Tests

let group_of_source src =
  let under dir = String.starts_with ~prefix:(dir ^ "/") src in
  if under "lib" || under "bin" then Some Production
  else if under "bench" || under "perfbench" || under "examples" then
    Some Users
  else if under "test" then Some Tests
  else None

let rec cmt_files dir acc =
  Array.fold_left
    (fun acc name ->
      let path = Filename.concat dir name in
      if Sys.is_directory path then cmt_files path acc
      else if
        Filename.check_suffix name ".cmt" || Filename.check_suffix name ".cmti"
      then path :: acc
      else acc)
    acc (Sys.readdir dir)

(* "Cacti_util__Floatx" -> "Floatx": the name callers write.  Library
   names hold no "__", so the module name starts after the first one. *)
let short_unit unit =
  let n = String.length unit in
  let rec go i =
    if i + 1 >= n then unit
    else if unit.[i] = '_' && unit.[i + 1] = '_' then
      String.sub unit (i + 2) (n - i - 2)
    else go (i + 1)
  in
  go 0

(* One [val] of a lib/ interface. *)
type decl = { unit : string; name : string; mli : string }

let key unit name = unit ^ "." ^ name

(* Global paths of the values one implementation references, each with
   the identifier expression that names it, the unit's local module
   aliases ([module SC = Solve_cache]) resolved. *)
let referenced_values (str : Typedtree.structure) =
  let aliases = Hashtbl.create 16 and uses = ref [] in
  let alias_target (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_ident (p, _)
    | Tmod_constraint ({ mod_desc = Tmod_ident (p, _); _ }, _, _, _) ->
        Some p
    | _ -> None
  in
  let module_binding sub (mb : Typedtree.module_binding) =
    (match (mb.mb_id, alias_target mb.mb_expr) with
    | Some id, Some p -> Hashtbl.replace aliases id p
    | _ -> ());
    Tast_iterator.default_iterator.module_binding sub mb
  in
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (p, _, _) -> uses := (p, e) :: !uses
    | Texp_letmodule (Some id, _, _, me, _) -> (
        match alias_target me with
        | Some p -> Hashtbl.replace aliases id p
        | None -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr; module_binding } in
  it.structure it str;
  (* A module path names a compilation unit when it is a persistent
     identifier, a library wrapper's alias ([Cacti_util.Floatx] is
     [Cacti_util__Floatx]) or a local alias of either. *)
  let rec unit_of (p : Path.t) =
    match p with
    | Pident id when Ident.persistent id -> Some (Ident.name id)
    | Pident id -> Option.bind (Hashtbl.find_opt aliases id) unit_of
    | Pdot (m, sub) ->
        Option.map (fun u -> u ^ "__" ^ sub) (unit_of m)
    | Papply _ | Pextra_ty _ -> None
  in
  List.filter_map
    (fun ((p : Path.t), e) ->
      match p with
      | Pdot (m, v) -> Option.map (fun u -> (key u v, e)) (unit_of m)
      | _ -> None)
    !uses

(* The polymorphic min/max lib/ must not reference, by key, with the
   name of the typed functions that replace them. *)
let generic_minmax = [ ("Stdlib.max", "max"); ("Stdlib.min", "min") ]

type verdict =
  | Production_ref
  | Users_ref
  | Tests_ref of string list  (** the test sources that call it *)
  | Unreferenced

let classify d refs =
  let callers =
    List.filter
      (fun (src, _) ->
        Filename.remove_extension src <> Filename.remove_extension d.mli)
      (Hashtbl.find_all refs (key d.unit d.name))
  in
  let has g = List.exists (fun (_, g') -> g' = g) callers in
  if has Production then Production_ref
  else if has Users then Users_ref
  else if has Tests then
    Tests_ref (List.sort_uniq compare (List.map fst callers))
  else Unreferenced

(* [Module.name] -> line number, and the malformed lines' errors *)
let read_allowlist () =
  let entries = Hashtbl.create 64 and errors = ref [] in
  let error lnum fmt =
    Printf.ksprintf
      (fun m ->
        errors := Printf.sprintf "%s:%d: %s" allowlist_file lnum m :: !errors)
      fmt
  in
  if Sys.file_exists allowlist_file then
    In_channel.with_open_text allowlist_file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.iteri (fun i line ->
           let lnum = i + 1 and line = String.trim line in
           if line <> "" && line.[0] <> '#' then
             match String.index_opt line ' ' with
             | None -> error lnum "%S has no reason" line
             | Some sp ->
                 let name = String.sub line 0 sp in
                 let reason =
                   String.trim (String.sub line sp (String.length line - sp))
                 in
                 let kind =
                   match String.index_opt reason ':' with
                   | Some c -> String.sub reason 0 c
                   | None -> reason
                 in
                 if not (List.mem kind reason_kinds) then
                   error lnum "%s: reason must start with one of %s:" name
                     (String.concat ", " reason_kinds)
                 else if Hashtbl.mem entries name then
                   error lnum "%s is listed twice" name
                 else Hashtbl.replace entries name lnum);
  (entries, !errors)

let () =
  if not (Sys.file_exists build_root && Sys.is_directory build_root) then (
    prerr_endline
      ("xref: no " ^ build_root
     ^ "; run `dune build @all @check` from the repository root first");
    exit 2);
  let decls = Hashtbl.create 512 in
  (* key -> (source of a referencing unit, its group), one per reference *)
  let refs = Hashtbl.create 4096 in
  (* ((source, line, column), message) of each Stdlib.max/min reference
     in lib/ *)
  let generic = ref [] in
  List.iter
    (fun file ->
      let cmt = Cmt_format.read_cmt file in
      match (cmt.cmt_sourcefile, cmt.cmt_annots) with
      | Some src, Interface sg
        when String.starts_with ~prefix:"lib/" src
             && Filename.check_suffix src ".mli" ->
          List.iter
            (fun (item : Typedtree.signature_item) ->
              match item.sig_desc with
              | Tsig_value vd ->
                  let name = Ident.name vd.val_id in
                  Hashtbl.replace decls (key cmt.cmt_modname name)
                    { unit = cmt.cmt_modname; name; mli = src }
              | _ -> ())
            sg.sig_items
      | Some src, Implementation str -> (
          match group_of_source src with
          | None -> ()
          | Some g ->
              let uses = referenced_values str in
              List.iter
                (fun k -> Hashtbl.add refs k (src, g))
                (List.sort_uniq compare (List.map fst uses));
              if String.starts_with ~prefix:"lib/" src then
                List.iter
                  (fun (k, (e : Typedtree.expression)) ->
                    match List.assoc_opt k generic_minmax with
                    | None -> ()
                    | Some op ->
                        let pos = e.exp_loc.loc_start in
                        generic :=
                          ( (src, pos.pos_lnum, pos.pos_cnum - pos.pos_bol + 1),
                            Printf.sprintf
                              "%s: use Int.%s on ints, Cacti_util.Floatx.%s \
                               on floats"
                              k op op )
                          :: !generic)
                  uses)
      | _ -> ())
    (cmt_files build_root []);
  if Hashtbl.length decls = 0 then (
    prerr_endline
      ("xref: no lib/ interfaces under " ^ build_root
     ^ "; run `dune build @check` first");
    exit 2);
  let classified =
    Hashtbl.fold (fun _ d acc -> d :: acc) decls []
    |> List.sort (fun a b -> compare (a.mli, a.name) (b.mli, b.name))
    |> List.map (fun d -> (short_unit d.unit ^ "." ^ d.name, d, classify d refs))
  in
  let count p = List.length (List.filter (fun (_, _, v) -> p v) classified) in
  Printf.printf
    "xref: %d vals in lib/**/*.mli: %d production, %d users, %d tests, %d \
     unreferenced\n"
    (List.length classified)
    (count (( = ) Production_ref))
    (count (( = ) Users_ref))
    (count (function Tests_ref _ -> true | _ -> false))
    (count (( = ) Unreferenced));
  Printf.printf "xref: %d references to Stdlib.max or Stdlib.min in lib/\n"
    (List.length !generic);
  flush stdout;
  let allow, errors = read_allowlist () in
  let errors = ref errors in
  let error fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let stale name lnum why =
    error "%s:%d: stale allowlist entry, %s %s" allowlist_file lnum name why
  in
  List.iter
    (fun (name, d, v) ->
      let entry = Hashtbl.find_opt allow name in
      Hashtbl.remove allow name;
      match (v, entry) with
      | Tests_ref srcs, None ->
          error "%s (%s) is called only from %s: delete it, or allowlist it \
                 as a seam in %s"
            name d.mli (String.concat ", " srcs) allowlist_file
      | Tests_ref _, Some _ -> ()
      | Unreferenced, _ ->
          error "%s (%s) is referenced by no other unit: take it out of the \
                 .mli"
            name d.mli
      | Production_ref, Some lnum -> stale name lnum "is called from lib/ or bin/"
      | Users_ref, Some lnum ->
          stale name lnum "is called from bench/, perfbench/ or examples/"
      | (Production_ref | Users_ref), None -> ())
    classified;
  Hashtbl.iter (fun name lnum -> stale name lnum "is not a val of lib/**/*.mli") allow;
  let sites =
    List.map
      (fun ((src, lnum, col), msg) ->
        Printf.sprintf "%s:%d:%d: %s" src lnum col msg)
      (List.sort compare !generic)
  in
  match List.sort compare !errors @ sites with
  | [] -> ()
  | errs ->
      List.iter (fun e -> prerr_endline ("xref: " ^ e)) errs;
      exit 1
