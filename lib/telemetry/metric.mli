(** Declarative metric registry for mutable counter records.

    A record of [int] counters declares its fields once, as a [spec] of
    (name, getter, setter) triples; [reset], [add], [to_assoc], [pp] and
    [to_json] are all derived from that single list, so the operations can
    never drift from the field set (the failure mode the hand-written
    Counters boilerplate invited: add a field, forget one of the four
    copies). The derived [add] is a commutative monoid with the all-zero
    record as identity, which the qcheck suites verify on the concrete
    instance. A record on a hot path may write [reset]/[add] out field by
    field instead (each derived one makes two indirect calls per field);
    [Counters] does, and its tests hold the two equal to these. *)

type 'a field

val field : string -> ('a -> int) -> ('a -> int -> unit) -> 'a field

type 'a spec = 'a field list

val names : 'a spec -> string list

val reset : 'a spec -> 'a -> unit
(** Set every declared field to 0. *)

val add : 'a spec -> 'a -> 'a -> unit
(** [add spec acc x] accumulates every declared field of [x] into [acc];
    [x] is left untouched. *)

val to_assoc : 'a spec -> 'a -> (string * int) list
(** In declaration order. *)

val get : 'a spec -> string -> 'a -> int
(** [get spec name t] reads one declared field; raises [Not_found] for an
    undeclared name. *)

val set : 'a spec -> string -> 'a -> int -> unit
(** [set spec name t v] writes one declared field; raises [Not_found] for
    an undeclared name. *)

val sum : 'a spec -> names:string list -> 'a -> int
(** Sum of the named fields; raises [Not_found] on an undeclared name. *)

val pp : 'a spec -> Format.formatter -> 'a -> unit

val to_json : 'a spec -> 'a -> Json.t
