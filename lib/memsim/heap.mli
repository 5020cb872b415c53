(** The simulated allocator: 8-byte-aligned placement with redzones and a
    freed-memory quarantine, mirroring the ASan allocator that GiantSan
    reuses unchanged (§4.5).

    Blocks leaving quarantine go to a free cache keyed by block length:
    an open-addressed int table (power-of-two capacity from 64, doubled
    before it is half full, linear probing from [block_len lsr 3]) whose
    slots hold each length's stack of block bases, newest first. [malloc]
    takes the newest block of its exact length first (no option, no
    hashing), then bump space, then the smallest cached length that fits,
    splitting off a remainder of at least 32 bytes back into the cache. A
    length whose stack empties keeps its slot.

    The heap maintains ground truth (the oracle's owner map and each
    object's [status], from which {!Oracle.state} derives byte states)
    but never touches shadow memory: each sanitizer runtime wraps [malloc] /
    [free] and poisons shadow according to its own encoding. *)

type config = {
  arena_size : int;
  redzone : int;
      (** requested inter-object redzone in bytes (paper default 16; the
          anchor-based study also uses 1 and 512). Rounded up so blocks stay
          8-aligned. *)
  quarantine_budget : int;  (** bytes of freed memory kept poisoned *)
}

val default_config : config
(** 1 MiB arena, 16-byte redzones, 256 KiB quarantine. *)

type t

type free_error =
  | Free_null  (** benign: [free NULL] is a no-op *)
  | Invalid_free  (** pointer into memory the allocator never returned *)
  | Free_not_at_start  (** pointer inside an object but not its base (CWE-761) *)
  | Double_free  (** object already freed *)

type free_outcome = {
  freed : Memobj.t;
  evicted : Memobj.t list;
      (** blocks leaving quarantine; their memory is reusable again and the
          wrapping sanitizer must reset their shadow *)
}

val create : config -> t
val arena : t -> Arena.t
val oracle : t -> Oracle.t
val config : t -> config

val malloc : t -> ?kind:Memobj.kind -> int -> Memobj.t
(** Allocate [size] bytes ([size >= 0]). The object's [base] is 8-aligned
    and its addressable range is exactly [size] bytes; everything else in
    the block is redzone. When the bump region and the free cache are both
    exhausted the allocator degrades gracefully: it flushes the quarantine
    (notifying {!set_evict_hook}), recycles the flushed blocks, and retries
    — trading the temporal-detection window for forward progress (counted by
    {!pressure_flushes}). Raises [Out_of_memory] only when even that fails,
    or at once, with no flush, when [size] exceeds the whole arena. *)

val free : t -> int -> (free_outcome, free_error) result
(** Free by pointer. On success the object becomes [Quarantined], so the
    oracle derives [Freed] for its bytes, and the block enters quarantine
    (heap objects) — stack/global objects are recycled immediately. *)

val find_object : t -> int -> Memobj.t option
(** Object whose block (redzones included) covers the address. *)

val live_bytes : t -> int
(** Total addressable bytes currently live (for tests). *)

val segment_count : t -> int
(** Number of 8-byte segments in the arena (= shadow size). *)

val pressure_flushes : t -> int
(** How many times [malloc] had to flush the quarantine to satisfy an
    allocation (each flush empties the whole queue). Zero on a healthy run. *)

val quarantine_bypasses : t -> int
(** {!Quarantine.bypasses} of the heap's quarantine: pushes where a single
    freed block exceeded the whole budget and was retained anyway. *)

val quarantine_length : t -> int
val quarantine_held : t -> int

val quarantine_ids : t -> int list
(** Live view of the quarantine FIFO (object ids, oldest first), so the
    refinement harness can check it against the pure model's queue. *)

val set_evict_hook : t -> (Memobj.t -> unit) -> unit
(** Called for every block recycled by a pressure flush, after its block
    has left the oracle's owner map, so the wrapping sanitizer can unpoison its shadow (the
    same duty as [free_outcome.evicted] on the normal path). Default:
    [ignore]. *)

type snapshot

val snapshot : t -> snapshot
(** Capture everything the allocator can mutate — arena bytes, the
    oracle's owner map, quarantine FIFO, free cache, the scalar cursors
    ([brk], id counter, live bytes, pressure flushes) and the mutable
    [status] of every reachable object (objects are shared by reference
    across the owner map, the quarantine and caller-held pointers, so the
    statuses must be recorded explicitly). The fuzz-mode restore point. *)

val restore : t -> snapshot -> unit
(** Rewind the heap to any snapshot taken from this heap. The arena and
    the oracle rewind through their dirty windows, so the cost is
    O(bytes the heap touched since the armed snapshot) plus the
    snapshot's quarantine, free cache and object statuses — not
    O(arena); an older snapshot than the armed one is repaired in full.
    Restoring a pristine snapshot allocates nothing. Objects allocated
    after the snapshot become unreachable; statuses of snapshot-time
    objects are written back, so a block freed-and-recycled since the
    snapshot is live again afterwards. The evict hook is not part of the
    snapshot — it belongs to the wrapping runtime, not the heap state. *)

val chaos_oom_after : t -> int -> unit
(** Fault-injection hook: arm a countdown so the [n]-th subsequent [malloc]
    (0-based) raises [Out_of_memory] regardless of arena state, then
    disarms. Pass [-1] to disarm. Costs one integer compare per [malloc]
    when disarmed. *)
