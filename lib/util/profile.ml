(* Opt-in wall-clock phase accounting for the solver pipeline.

   Disabled by default: the only cost on the hot path is one [Atomic.get].
   When enabled (e.g. by [cacti_cli --profile]) each [time]d region adds its
   elapsed wall time to a named accumulator under a mutex, so instrumented
   regions may run concurrently on several domains. *)

type cell = { mutable seconds : float; mutable calls : int }

let enabled = Atomic.make false
let lock = Mutex.create ()
let cells : (string, cell) Hashtbl.t = Hashtbl.create 16

let set_enabled b = Atomic.set enabled b

let reset () =
  Mutex.protect lock (fun () -> Hashtbl.reset cells)

let record name seconds =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt cells name with
      | Some c ->
          c.seconds <- c.seconds +. seconds;
          c.calls <- c.calls + 1
      | None -> Hashtbl.replace cells name { seconds; calls = 1 })

let time name f =
  if not (Atomic.get enabled) then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () -> record name (Unix.gettimeofday () -. t0))
      f
  end

let summary () =
  let rows =
    Mutex.protect lock (fun () ->
        Hashtbl.fold (fun name c acc -> (name, c.seconds, c.calls) :: acc)
          cells [])
  in
  List.sort
    (fun (_, a, _) (_, b, _) -> compare (b : float) a)
    rows
