(** Allocated-object metadata: the ground-truth registry of every object the
    simulated program ever allocated. Sanitizers do NOT read this (they only
    see shadow memory); the oracle and the test harness do. *)

type kind = Heap | Stack | Global

type status =
  | Live  (** allocated, bytes addressable *)
  | Quarantined  (** freed, still poisoned, in the quarantine queue *)
  | Recycled  (** freed and evicted from quarantine: memory may be reused *)

type t = {
  id : int;
  kind : kind;
  base : int;  (** first addressable byte (8-aligned) *)
  size : int;  (** requested size in bytes *)
  block_base : int;  (** start of the whole block incl. left redzone *)
  block_len : int;  (** full block length incl. both redzones *)
  mutable status : status;
}

val block_end : t -> int
val contains : t -> int -> bool
(** [contains obj addr]: is [addr] inside the object's addressable range? *)

val kind_name : kind -> string
val pp : Format.formatter -> t -> unit
