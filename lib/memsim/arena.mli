(** Flat byte-addressable memory arena.

    This stands in for the paper's 64-bit virtual address space: addresses
    are plain [int] offsets into one [Bytes.t]. Address [0] plays the role
    of [NULL] and is never handed out by the allocator. *)

type t

val create : size:int -> t
(** [create ~size] makes an arena of [size] bytes (rounded up to a multiple
    of 8, and at least 64). All bytes start as [0]. *)

val size : t -> int

val load : t -> addr:int -> width:int -> int
(** Little-endian load of [width] bytes ([1], [2], [4] or [8]); a width-8
    load truncates to OCaml's 63-bit int, which is harmless for the
    simulation. Bounds-checked against the arena (not against objects:
    object-level safety is the sanitizers' job). *)

val store : t -> addr:int -> width:int -> int -> unit
(** Little-endian store; excess high bits of the value are dropped. *)

val fill : t -> addr:int -> len:int -> int -> unit
(** [fill t ~addr ~len byte] is [memset]. *)

val blit : t -> src:int -> dst:int -> len:int -> unit
(** [blit] is [memmove] (overlap-safe). *)

(** {1 Snapshot / restore (the fuzz-mode profile)}

    Every mutator ({!store}, {!fill}, {!blit}) widens the arena's
    {!Dirty} window; restore blits back only that window. *)

type snapshot

val snapshot : t -> snapshot
(** Copy of the arena contents (fuzz-mode restore point); arms an empty
    dirty window. *)

val restore : t -> snapshot -> unit
(** Rewind to any snapshot taken from this arena, in O(bytes written
    since the armed snapshot): only the dirty window is blitted back.
    Restoring a snapshot other than the armed one (an older one) repairs
    the whole arena, through the same blit, and arms it. *)
