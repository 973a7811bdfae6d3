type t = { jobs : int }

let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

let create ?jobs () =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  { jobs }

let serial = { jobs = 1 }

(* One shared chunk counter; workers (the spawned domains plus the calling
   domain) repeatedly claim the next unprocessed chunk, so load imbalance
   between cheap and expensive elements evens out without per-element
   synchronization.  Results land at their input index, which keeps the
   output order — and therefore every downstream tie-break — identical to
   a serial run. *)
let run_chunked ~chunk t n body =
  if n = 0 then ()
  else
    let chunk = max 1 chunk in
    let n_chunks = (n + chunk - 1) / chunk in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let c = Atomic.fetch_and_add next 1 in
        if c < n_chunks then (
          let lo = c * chunk in
          let hi = min n (lo + chunk) in
          for i = lo to hi - 1 do
            body i
          done;
          loop ())
      in
      loop ()
    in
    let n_helpers = min (t.jobs - 1) (n_chunks - 1) in
    if n_helpers <= 0 then worker ()
    else
      let helpers = Array.init n_helpers (fun _ -> Domain.spawn worker) in
      (* Always join every helper, then re-raise the first failure unwrapped
         so callers see the same exception a serial run would. *)
      let first_exn = ref None in
      let record e = if !first_exn = None then first_exn := Some e in
      (try worker () with e -> record e);
      Array.iter
        (fun d -> try Domain.join d with e -> record e)
        helpers;
      match !first_exn with Some e -> raise e | None -> ()

let parallel_map ?(chunk = 32) t f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | xs ->
      let input = Array.of_list xs in
      let n = Array.length input in
      let out = Array.make n None in
      run_chunked ~chunk t n (fun i -> out.(i) <- Some (f input.(i)));
      Array.fold_right
        (fun r acc ->
          match r with Some v -> v :: acc | None -> assert false)
        out []
