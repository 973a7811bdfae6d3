open Cacti_util

(* Snapshot I/O runs under the same containment as the rest of the
   server: an injected or real I/O failure becomes a warning diagnostic
   and a cold start / skipped save, never a crash. *)
let contained point what path f =
  try Chaos.fire point; f () with
  | Chaos.Injected p ->
      [
        Diag.warningf ~component:"serve" ~reason:what
          "injected fault at %s handling %s" p path;
      ]
  | Sys_error msg | Failure msg ->
      [
        Diag.warningf ~component:"serve" ~reason:what "%s failed for %s: %s"
          what path msg;
      ]
  | Unix.Unix_error (e, fn, _) ->
      [
        Diag.warningf ~component:"serve" ~reason:what "%s failed for %s: %s: %s"
          what path fn (Unix.error_message e);
      ]

let load path =
  contained "persist.load" "cache_load" path (fun () ->
      if not (Sys.file_exists path) then
        [
          Diag.make Diag.Info ~component:"serve" ~reason:"cache_load"
            (Printf.sprintf "no cache file %s: cold start" path);
        ]
      else
        match Cacti.Solve_cache.load path with
        | Ok n ->
            [
              Diag.make Diag.Info ~component:"serve" ~reason:"cache_load"
                (Printf.sprintf "warm start: %d memoized solve(s) from %s" n
                   path);
            ]
        | Error msg ->
            [
              Diag.warningf ~component:"serve" ~reason:"cache_load"
                "could not load %s (%s): cold start" path msg;
            ])

let save path =
  contained "persist.save" "cache_save" path (fun () ->
      match Cacti.Solve_cache.save path with
      | Ok n ->
          [
            Diag.make Diag.Info ~component:"serve" ~reason:"cache_save"
              (Printf.sprintf "saved %d memoized solve(s) to %s" n path);
          ]
      | Error msg ->
          [
            Diag.warningf ~component:"serve" ~reason:"cache_save"
              "could not save cache to %s: %s" path msg;
          ])
