(** Shadow memory: one unsigned byte of metadata per 8-byte segment.

    This is the `ShadowUnitType m[N]` array of §2.2. Both ASan's and
    GiantSan's encodings live in this substrate; they differ only in how
    they interpret the byte. Reads issued on the check path go through
    [load] so the experiments can count metadata loadings — the quantity the
    protection-density argument is about. *)

type t

val create : segments:int -> fill:int -> t
(** [create ~segments ~fill] makes a shadow array of [segments] bytes, all
    initialised to [fill] (the encoding's "unallocated" code). *)

val of_heap : Giantsan_memsim.Heap.t -> fill:int -> t
(** Shadow sized to cover the heap's arena. *)

val segments : t -> int

val load : t -> int -> int
(** [load m p] reads segment state [m[p]] (0..255) and counts one metadata
    load. Out-of-range [p] returns the fill value (the virtual space beyond
    the arena is non-addressable) without counting — only probes that touch
    real metadata are charged, mirroring the clamp-then-count rule of the
    store kernels. *)

val peek : t -> int -> int
(** Like [load] but uncounted — for tests and pretty-printing only. *)

val load_word : t -> int -> unit
(** [load_word m p] fetches segments [p, p+8) into [m]'s word register in
    one counted metadata load; {!word_lane} then reads them back.
    Out-of-range segments read as the fill value (arena-end clamping is
    per-byte), and a word that lies entirely outside the arena costs no
    load at all. In-range words are a single 64-bit fetch. Nothing is
    returned, so the check hot path allocates nothing. *)

val word_lane : t -> int -> int
(** [word_lane m k] is lane [k] (0..7) of the last word {!load_word}
    fetched: the state code of segment [p + k]. Uncounted — the word was
    paid for by the load. *)

val peek_word : t -> int -> int64
(** The word [load_word m p] would fetch, packed little-endian (byte [k] is
    segment [p + k]) and uncounted — for audits (selfcheck) and dumps whose
    whole-arena scans must not perturb the workload's cost model. *)

val word_byte : int64 -> int -> int
(** [word_byte w k] extracts lane [k] (0..7) of a shadow word: the state
    code of segment [p + k] when [w = peek_word m p]. *)

val set : t -> int -> int -> unit
(** [set m p v] writes segment state (0..255), counting one metadata store. *)

val poke : t -> int -> int -> unit
(** Like [set] but uncounted: the chaos engine's corruption primitive.
    An injected fault must not perturb the event-count-derived cost model
    (phantom stores would break the determinism and bench gates), so it
    bypasses the counter on purpose. Out-of-range [p] is ignored. Nothing
    outside fault injection may use this. *)

val fill_range : t -> lo:int -> hi:int -> int -> unit
(** Set segments [lo, hi) to a value. The range is clamped to the arena
    first and only the clamped length is counted as stores — writes into
    the virtual space beyond the arena touch no metadata and therefore
    cost nothing (counting them would overcharge the cost model). The
    bounds check is hoisted: one clamp, then an unchecked fill. *)

val blit_pattern : t -> lo:int -> pattern:Bytes.t -> pat_off:int -> len:int -> unit
(** [blit_pattern m ~lo ~pattern ~pat_off ~len] copies
    [pattern[pat_off, pat_off + len)] onto segments [lo, lo + len) in one
    batched write: the destination range is clamped to the arena (the
    pattern window slides along with it), the clamped length is counted as
    stores in one increment, and the copy itself is an unchecked blit.
    This is the fast path under precomputed poisoning templates.
    Requires [0 <= pat_off] and [pat_off + len <= Bytes.length pattern]. *)

val loads : t -> int
(** Metadata loads so far. *)

val stores : t -> int
val reset_counters : t -> unit

(** {1 Snapshot / restore — the fuzz-mode execution profile}

    [snapshot] copies the whole shadow plane once and arms a dirty-segment
    journal: from then on every store kernel ({!set}, {!poke},
    {!fill_range}, {!blit_pattern}) records the clamped range it touched.
    [restore] blits the snapshot back over only the journaled ranges — the
    incremental re-poisoning that makes per-exec reset cost O(dirty
    segments) instead of O(arena) — and restores the load/store counters so
    a restored run is event-count-identical to a fresh one. *)

type snapshot

val snapshot : t -> snapshot
(** Capture the shadow plane and counters; clears and (re)arms the dirty
    journal. *)

val restore : t -> snapshot -> unit
(** Blit the snapshot back over every journaled range, restore the
    counters, and clear the journal (it stays armed for the next exec).
    The snapshot must come from this [t]. *)

val journal_entries : t -> int
(** Ranges currently journaled (diagnostics and the chaos plane). *)

val journal_segments : t -> int
(** Total journaled segments, with multiplicity — the work {!restore} will
    do, which is what the fuzz-mode throughput model charges for. *)

val chaos_drop_journal : t -> pick:int -> (int * int) option
(** Fault-injection hook: remove the [pick]-th journaled range (newest
    first, modulo length) so the next {!restore} under-repairs and leaves
    stale segments behind — which the shadow-vs-oracle selfcheck must then
    flag. Returns the dropped range, or [None] when the journal is empty.
    Nothing outside fault injection may use this. *)
