(** Minimal ASCII table renderer for experiment output.

    Columns are sized to the widest cell; the first row is treated as a
    header and separated by a rule. *)

type align = Left | Right

val render : ?aligns:align list -> string list list -> string
(** [render rows] lays the rows out as an aligned ASCII table. All rows must
    have the same number of cells. [aligns] defaults to [Left] for the first
    column and [Right] for the rest. *)

val print : ?aligns:align list -> string list list -> unit
(** [render] followed by [print_string]. *)

val fpct : float -> string
(** Format a percentage like the paper: ["146.04%"]. *)

val f2 : float -> string
(** Two-decimal float. *)

val shortest_float : float -> string
(** The shortest [%g] render (at any precision up to 17) that
    [float_of_string] reads back as the same float; on a tie in length the
    one without an exponent: ["999999999"], ["20000"], ["1e+06"],
    ["0.05"]. *)
