type severity = Info | Warning | Error

type t = {
  severity : severity;
  component : string;
  reason : string;
  message : string;
}

let make severity ~component ~reason message =
  { severity; component; reason; message }

let info ~component ~reason message = make Info ~component ~reason message
let warning ~component ~reason message = make Warning ~component ~reason message
let error ~component ~reason message = make Error ~component ~reason message

let errorf ~component ~reason fmt =
  Printf.ksprintf (error ~component ~reason) fmt

let warningf ~component ~reason fmt =
  Printf.ksprintf (warning ~component ~reason) fmt

let severity_to_string = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

let to_string d =
  Printf.sprintf "%s[%s/%s]: %s"
    (severity_to_string d.severity)
    d.component d.reason d.message

let render ds = String.concat "\n" (List.map to_string ds)

type counts = {
  candidates : int;
  evaluated : int;
  geometry_rejected : int;
  page_rejected : int;
  area_pruned : int;
  bound_pruned : int;
  nonviable : int;
  nonfinite : int;
  raised : int;
}

let zero_counts =
  {
    candidates = 0;
    evaluated = 0;
    geometry_rejected = 0;
    page_rejected = 0;
    area_pruned = 0;
    bound_pruned = 0;
    nonviable = 0;
    nonfinite = 0;
    raised = 0;
  }

let add_counts a b =
  {
    candidates = a.candidates + b.candidates;
    evaluated = a.evaluated + b.evaluated;
    geometry_rejected = a.geometry_rejected + b.geometry_rejected;
    page_rejected = a.page_rejected + b.page_rejected;
    area_pruned = a.area_pruned + b.area_pruned;
    bound_pruned = a.bound_pruned + b.bound_pruned;
    nonviable = a.nonviable + b.nonviable;
    nonfinite = a.nonfinite + b.nonfinite;
    raised = a.raised + b.raised;
  }

let counts_to_string c =
  Printf.sprintf
    "%d candidates: %d evaluated; rejected: geometry %d, page %d, \
     area-pruned %d, bound-pruned %d, nonviable %d, nonfinite %d, raised %d"
    c.candidates c.evaluated c.geometry_rejected c.page_rejected c.area_pruned
    c.bound_pruned c.nonviable c.nonfinite c.raised

type summary = { sweeps : counts; cache_hits : int; notes : t list }

let summary_to_string s =
  Printf.sprintf "%s; cache hits %d"
    (counts_to_string s.sweeps)
    s.cache_hits

let exit_ok = 0
let exit_usage = 1
let exit_invalid_spec = 2
let exit_no_solution = 3
