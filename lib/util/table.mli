(** Plain-text table rendering for bench and example output.

    The benches print every reproduced paper table/figure as an aligned ASCII
    table with a [paper]/[model]/[error] triple per metric; this module does
    the alignment. *)

type align = Left | Right

type t

val create : ?align:align list -> string list -> t
(** [create headers] starts a table. [align] defaults to [Left] for the first
    column and [Right] for the rest. *)

val add_row : t -> string list -> unit
(** Rows shorter than the header are padded with empty cells. *)

val add_sep : t -> unit
(** Inserts a horizontal separator line. *)

val print : t -> unit
(** Prints the aligned table and a trailing blank line. *)

val cell_f : ?dec:int -> float -> string
(** Formats a float with [dec] decimals (default 3), dropping noise like
    ["-0.000"]. *)

val cell_pct : float -> string
(** Formats a ratio as a signed percentage, e.g. [0.062 -> "+6.2%"]. *)
