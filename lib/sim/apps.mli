(** The eight NPB workloads of the LLC study, as synthetic models.

    Region sizes are chosen to reproduce each application's relationship to
    the study's cache capacities (L2 = 8 MB total private, L3 = 24–192 MB),
    following the paper's Section 4.2 characterization:

    - [ft_b], [lu_c]: working sets beyond L2 but within the larger L3s;
      lu's hot set exceeds the 24 MB SRAM L3 in particular.
    - [bt_c], [is_c], [mg_b], [sp_c]: working sets larger than every L3 but
      with locality, so bigger L3s monotonically filter more memory traffic.
    - [ua_c]: few L3 accesses (low memory intensity), insensitive to L3.
    - [cg_c]: no locality beyond L2 (huge random sparse accesses), all L3s
      fail to filter.

    Instruction counts are scaled from the paper's 10 B to the simulator's
    default budget; region sizes keep their relationship to the (unscaled)
    cache capacities. *)

val ft_b : Workload.app
val lu_c : Workload.app
val ua_c : Workload.app
val cg_c : Workload.app

val all : Workload.app list
(** In the paper's figure order: bt, cg, ft, is, lu, mg, sp, ua. *)

val by_name : string -> Workload.app
(** Raises [Not_found] for unknown names. *)
