(** The dirty window of a fuzz-mode plane: one [[lo, hi)] byte window
    covering every byte mutated since the plane's last snapshot, plus the
    identity of that snapshot.

    {!Arena} and {!Oracle} each keep one. Every mutator widens the window
    (two integer compares, no allocation), [snapshot] arms a fresh one,
    and [restore] blits back only the bytes inside it — so a per-exec
    rewind costs O(bytes touched), not O(arena). A window is coarser than
    a journal (it over-covers the gap between two distant writes), but a
    fuzz exec touches a few adjacent blocks at the bottom of the heap, so
    the gap is small and the window never allocates.

    Restoring a snapshot other than the armed one (an older snapshot, say)
    would under-repair: the window only covers the bytes changed since the
    {e armed} snapshot. {!rewind} therefore widens the window to the whole
    plane in that case, and the ordinary blit does the full repair. *)

type 'snap t

val create : size:int -> 'snap t
(** An unarmed, empty window over a plane of [size] bytes. *)

val widen : 'snap t -> lo:int -> hi:int -> unit
(** Note that bytes [[lo, hi)] were mutated. *)

val arm : 'snap t -> 'snap -> unit
(** At snapshot: remember [s] as the snapshot the window is relative to,
    and empty the window. *)

val rewind : 'snap t -> 'snap -> unit
(** At restore, before the blit: if [s] is not the armed snapshot (compared
    physically), widen the window to the whole plane and arm [s]. After
    the blit the plane equals [s], so later mutations are relative to it. *)

val lo : 'snap t -> int
val hi : 'snap t -> int
(** The window is empty when [hi t <= lo t]. *)

val clear : 'snap t -> unit
(** Empty the window (after restore's blit), keeping the armed snapshot. *)
