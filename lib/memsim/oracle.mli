(** Byte-level ground truth about addressability.

    The oracle is the referee: property tests compare every sanitizer's
    verdicts against it, and the bug harness uses it to decide whether a
    synthetic access really was a violation. It is maintained by the heap,
    never consulted by sanitizers.

    The oracle stores only the owner map (which object's block covers
    each 8-byte segment). Byte states are derived, not stored: a byte no
    block covers is [Unallocated]; inside its owner's block, a byte of
    [[base, base + size)] is [Addressable] while the owner is [Live] and
    [Freed] while it is [Quarantined], and every other byte is [Redzone].
    So the heap's [claim], [release] and [status] updates are the whole
    upkeep, and no allocation pays a store per arena byte. *)

type byte_state =
  | Unallocated  (** never allocated, or recycled after quarantine *)
  | Addressable  (** inside a live object *)
  | Redzone  (** inside a redzone of a live or quarantined object *)
  | Freed  (** inside a quarantined (freed, not yet recycled) object *)

type t

val create : arena_size:int -> t
val state : t -> int -> byte_state
(** The derived state of one byte: an owner lookup, then a compare
    against the owner's object range and a match on its [status]. *)

val range_addressable : t -> lo:int -> hi:int -> bool
(** Are all bytes of [lo, hi) addressable? [true] for an empty range. *)

val first_bad : t -> lo:int -> hi:int -> int option
(** Address of the first non-addressable byte in [lo, hi), if any. *)

val claim : t -> Memobj.t -> unit
(** Record [obj] as the owner of its whole block (redzones included): one
    int32 store per 8-byte segment and one pointer store. The block must
    be 8-aligned and span at least 2 segments ([block_len >= 16]). *)

val release : t -> Memobj.t -> unit
(** Forget the owner of [obj]'s block, which must be the block {!claim}
    recorded. *)

val owner : t -> int -> Memobj.t option
(** The object whose block covers [addr], if any. Two loads, no
    allocation. *)

val fold_owners : t -> ('a -> Memobj.t -> 'a) -> 'a -> 'a
(** Fold over every claimed object once, in ascending [block_base]
    order. *)

(** {1 Snapshot / restore (the fuzz-mode profile)}

    {!claim} and {!release} widen the oracle's {!Dirty} window (in bytes);
    restore blits back only the heads of the segments overlapping it and
    the object slots of those heads. Byte states need no restore of their
    own: they follow from the owner map and the objects' statuses, which
    [Heap.restore] writes back. *)

type snapshot

val snapshot : t -> snapshot
(** Copy of both owner planes (fuzz-mode restore point); arms an empty
    dirty window. *)

val restore : t -> snapshot -> unit
(** Rewind to any snapshot taken from this oracle, in O(bytes and
    segments changed since the armed snapshot). Restoring a snapshot other
    than the armed one (an older one) repairs the whole oracle, through
    the same blit, and arms it. *)
