(** Minimal JSON codec (RFC 8259 subset) for the wire protocol and the
    machine-readable CLI/bench outputs.

    The project deliberately has no third-party JSON dependency; this module
    is the one codec every producer and consumer shares, so a value printed
    anywhere in the tool parses back identically everywhere else.

    {b Numbers.}  Integers parse to {!Int} when they fit OCaml's [int];
    anything with a fraction, an exponent or outside the [int] range parses
    to {!Float}.  Floats print with the shortest decimal representation that
    round-trips bit-exactly, always containing ['.'] or ['e'] so the
    Int/Float distinction survives a print→parse cycle.

    {b Finite-float policy.}  JSON has no NaN or infinities.  A non-finite
    {!Float} prints as [null], and {!num} normalizes non-finite values to
    {!Null} at construction time, so [parse (to_string v)] equals [v] with
    every non-finite {!Float} replaced by {!Null}.

    {b Strings} are byte sequences: printing escapes ['"'], ['\\'] and
    control bytes below [0x20]; bytes [>= 0x80] pass through unmodified
    (assumed UTF-8).  Parsing decodes the standard escapes including
    [\uXXXX] (with surrogate pairs) to UTF-8 bytes. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** insertion-ordered; keys should be unique *)

val num : float -> t
(** [Float f], or {!Null} when [f] is NaN or infinite. *)

(** {1 Printing} *)

val to_string : t -> string
(** Compact, single-line. *)

val to_string_pretty : t -> string
(** 2-space indented, for human consumption ([cacti_d --json]). *)

val to_canonical_string : t -> string
(** Compact like {!to_string}, but object keys are sorted (recursively,
    byte order) so two spellings of the same object print identically —
    the routing/deduplication key for the serve layer.  Array order and
    number spellings are preserved: [Int 1] and [Float 1.] stay
    distinct. *)

(** {1 Parsing} *)

val parse : string -> (t, string) result
(** Whole-string parse; trailing non-whitespace is an error.  The error
    message includes the byte offset. *)

(** {1 Decoding helpers}

    Total accessors used by the protocol decoders: each returns [None] on a
    shape mismatch instead of raising. *)

val member : string -> t -> t option
(** First binding of the key in an {!Obj}; [None] for other shapes. *)

val get_string : t -> string option
val get_bool : t -> bool option

val get_int : t -> int option
(** {!Int}, or an integral {!Float} that fits an [int]. *)

val get_float : t -> float option
(** {!Float} or {!Int}. *)
