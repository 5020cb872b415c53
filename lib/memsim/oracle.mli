(** Byte-level ground truth about addressability.

    The oracle is the referee: property tests compare every sanitizer's
    verdicts against it, and the bug harness uses it to decide whether a
    synthetic access really was a violation. It is maintained by the heap,
    never consulted by sanitizers. *)

type byte_state =
  | Unallocated  (** never allocated, or recycled after quarantine *)
  | Addressable  (** inside a live object *)
  | Redzone  (** inside a redzone of a live or quarantined object *)
  | Freed  (** inside a quarantined (freed, not yet recycled) object *)

type t

val create : arena_size:int -> t
val state : t -> int -> byte_state
val set_range : t -> lo:int -> hi:int -> byte_state -> unit
(** Set bytes [lo, hi) to a state. *)

val range_addressable : t -> lo:int -> hi:int -> bool
(** Are all bytes of [lo, hi) addressable? [true] for an empty range. *)

val first_bad : t -> lo:int -> hi:int -> int option
(** Address of the first non-addressable byte in [lo, hi), if any. *)

val set_owner : t -> lo:int -> hi:int -> Memobj.t option -> unit
(** Record which object owns the 8-byte segments overlapping [lo, hi)
    (redzones included). *)

val owner : t -> int -> Memobj.t option
(** The object whose block covers [addr], if any. *)

val fold_owners : t -> ('a -> Memobj.t -> 'a) -> 'a -> 'a
(** Fold over every owner slot holding an object, segment order. An object
    spanning k segments is visited k times — callers dedupe by id (the heap
    snapshot does, to record each reachable object's status once). *)

(** {1 Snapshot / restore (the fuzz-mode profile)}

    {!set_range} and {!set_owner} widen the oracle's {!Dirty} window (in
    bytes); restore blits back only the byte states inside it and the
    owner slots of the segments overlapping it. *)

type snapshot

val snapshot : t -> snapshot
(** Copy of the byte states and the owner map (fuzz-mode restore point);
    arms an empty dirty window. *)

val restore : t -> snapshot -> unit
(** Rewind to any snapshot taken from this oracle, in O(bytes and
    segments changed since the armed snapshot). Restoring a snapshot other
    than the armed one (an older one) repairs the whole oracle, through
    the same blit, and arms it. *)
