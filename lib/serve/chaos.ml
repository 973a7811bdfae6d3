(* Fault-injection registry for the serving stack.  Production code calls
   [fire point] (and [mangle point line]) at a handful of named injection
   points; with nothing armed that is a single Atomic read.  The chaos
   soak harness arms points with seeded probabilities and asserts the
   server's invariants hold while faults land. *)

exception Injected of string

type fault =
  | Exn  (** raise {!Injected} at the point *)
  | Delay of float  (** sleep that many seconds, then continue *)
  | Io_error  (** raise [Sys_error] as a failing I/O call would *)
  | Epipe  (** raise [Unix.Unix_error (EPIPE, ...)] as a dead peer would *)
  | Mangle  (** corrupt the string passing through {!mangle} *)

type arm = { fault : fault; prob : float; mutable fired : int }

(* Fast path: [enabled] is false whenever the table is empty, so [fire] in
   a fault-free server costs one atomic load and a conditional. *)
let enabled = Atomic.make false
let lock = Mutex.create ()
let table : (string, arm) Hashtbl.t = Hashtbl.create 8
let rng = ref (Cacti_util.Rng.create 0x5eedL)

let seed s =
  Mutex.protect lock (fun () -> rng := Cacti_util.Rng.create (Int64.of_int s))

let arm point ?(prob = 1.0) fault =
  Mutex.protect lock (fun () ->
      Hashtbl.replace table point { fault; prob; fired = 0 };
      Atomic.set enabled true)

let reset () =
  Mutex.protect lock (fun () ->
      Hashtbl.reset table;
      Atomic.set enabled false)

let points () =
  Mutex.protect lock (fun () ->
      Hashtbl.fold (fun p a acc -> (p, a.fired) :: acc) table []
      |> List.sort compare)

(* Decide under the lock, act outside it (a Delay must not hold the
   registry lock). *)
let draw point =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt table point with
      | Some a when Cacti_util.Rng.bernoulli !rng a.prob ->
          a.fired <- a.fired + 1;
          Some a.fault
      | _ -> None)

let fire point =
  if Atomic.get enabled then
    match draw point with
    | None | Some Mangle -> ()
    | Some Exn -> raise (Injected point)
    | Some (Delay s) -> Thread.delay s
    | Some Io_error -> raise (Sys_error (Printf.sprintf "chaos: %s" point))
    | Some Epipe -> raise (Unix.Unix_error (Unix.EPIPE, "write", point))

let mangle point line =
  if not (Atomic.get enabled) then line
  else
    match draw point with
    | Some Mangle ->
        (* Torn line: truncate at a deterministic-ish midpoint and splice
           in garbage bytes, leaving no newline inside. *)
        let n = String.length line in
        if n = 0 then "\xff\xfe{"
        else String.sub line 0 (n / 2) ^ "\xff{\"torn\":"
    | _ -> line
