(** The staged solution-selection process of Section 2.4, applied to the
    candidate organizations of one array. *)

exception No_solution of string
(** Raised by {!Solve_cache.select_bank} and the model [solve] functions
    when the design space holds no valid organization; the message names
    the array being solved, so a failing solve is diagnosable. *)

val select_soa_result :
  ?what:string ->
  params:Opt_params.t ->
  Cacti_array.Soa_kernel.t ->
  (int, string) result
(** The staged selection over a sweep's metric columns: applies the
    max-area filter, then the max-acctime filter, then the weighted
    objective (each metric normalized by its minimum over the survivors of
    both filters), and returns the winning candidate's sweep index
    without materializing any record (materialize it with
    {!Cacti_array.Bank.sweep_bank}).  Ties keep the earliest candidate in
    sweep order, so the choice is deterministic whatever the evaluation
    schedule.  [Error] names [what] (default ["array"]) when no candidate
    evaluated.  Raises [Invalid_argument] on a NaN metric or objective.
    The contract is the list-based reference in
    [test/oracle/solver_naive.ml]: same winner, same [Error], same
    exceptions. *)
