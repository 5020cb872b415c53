(** Obviously-correct scalar reference implementations of every optimized
    shadow kernel, over a plain [int array] shadow.

    Each function here is the one-byte-at-a-time transcription of a kernel
    whose real implementation earns its keep through hoisted bounds,
    memoized templates, [unsafe_blit], or logarithmic fold hopping. The
    refinement properties in [test/spec] (and the lockstep harness in
    {!Refine}) assert byte-for-byte and counter-for-counter agreement, so
    the fast kernels are licensed by these references rather than by
    scattered hand-picked cases. *)

type t

val create : segments:int -> fill:int -> t
val of_shadow : Giantsan_shadow.Shadow_mem.t -> t
(** Snapshot a live shadow (uncounted peeks; the reference's own store
    counter starts at zero). *)

val segments : t -> int
val stores : t -> int
val peek : t -> int -> int
(** Total like the real shadow: out-of-range answers the fill byte. *)

val set : t -> int -> int -> unit
(** [Shadow_mem.set] discipline: the store counts even out of range. *)

val fill_range : t -> lo:int -> hi:int -> int -> unit
(** Reference for [Shadow_mem.fill_range]: per-byte writes, counting only
    bytes that land in the arena. *)

val blit_pattern :
  t -> lo:int -> pattern:Bytes.t -> pat_off:int -> len:int -> unit
(** Reference for [Shadow_mem.blit_pattern], same clamped counting. *)

val poison_good_run :
  ?fault:Giantsan_core.Folding.fault -> t -> first_seg:int -> count:int -> unit
(** Reference for [Folding.poison_good_run] (its only scalar twin): the
    degree definition evaluated directly per position, one counted store
    each, fault plan included. *)

val poison_alloc :
  ?fault:Giantsan_core.Folding.fault -> t -> Giantsan_memsim.Memobj.t -> unit

val poison_free : t -> Giantsan_memsim.Memobj.t -> unit
val poison_evict : t -> Giantsan_memsim.Memobj.t -> unit

val region_check : t -> l:int -> r:int -> [ `Safe | `Bad of int ]
(** Reference for [Region_check.check]: byte-wise scan of [l, r), blaming
    the {e first} non-addressable byte. *)

val region_check_unaligned : t -> l:int -> r:int -> [ `Safe | `Bad of int ]

val check_unaligned_scalar :
  Giantsan_shadow.Shadow_mem.t ->
  l:int ->
  r:int ->
  Giantsan_core.Region_check.outcome
(** The word kernel's unaligned lockstep twin, over the live shadow:
    [Region_check.check_scalar] after aligning [l] down, with the same
    empty-before-align rule and blame clamp as
    [Region_check.check_unaligned]. *)

val word_at : t -> int -> int64
(** Reference for [Shadow_mem.load_word]/[peek_word]: eight single-byte
    peeks assembled little-endian — lane [k] holds segment [p + k], with
    out-of-range lanes answering the fill byte. *)

val word_load_counted : t -> int -> bool
(** Counting discipline of [Shadow_mem.load_word]: exactly one load is
    charged iff some lane of [p, p+8) lands in the arena. *)

val upper_bound : t -> addr:int -> int
(** Reference for [Folding.upper_bound]: linear byte walk from the start of
    [addr]'s segment, clamped to the arena end, never below [addr]. *)

val lower_bound_sound : t -> addr:int -> int -> bool
(** Soundness envelope for [Folding.lower_bound ~addr]: the returned bound
    must be aligned, within the arena, and only ever claim addressable
    bytes up to [addr]'s segment start. *)

val linear_poison_good_run : t -> first_seg:int -> count:int -> unit
(** Reference for [Linear_encoding.poison_good_run]:
    [min max_run (count - j)] per position. *)
