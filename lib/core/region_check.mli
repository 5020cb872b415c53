(** Algorithm 1: the O(1) region check [CI(L, R)] (§4.2).

    Safeguards an arbitrary-size region with at most three shadow loads:

    - {b word check}: for regions spanning at most 8 segments, one 64-bit
      shadow load fetches every segment Algorithm 1 could probe; all probe
      lanes are served from that word — one metadata load total;
    - {b fast check}: the folded segment at [L] already covers [R - L]
      bytes — one load, the common case (Figure 6b);
    - {b slow check}: the region must decompose into two folded segments of
      the same degree (Figure 6c) plus an addressable prefix of the final
      partial segment — two more loads.

    Contrast with ASan's guardian, which loads one shadow byte per 8-byte
    segment of the region. *)

type outcome =
  | Safe_fast  (** settled by the fast check *)
  | Safe_slow  (** needed the slow check *)
  | Safe_word  (** settled by the one-word kernel (a [fast_checks] flavour:
                   every probe served from a single 64-bit shadow load) *)
  | Bad of int  (** region contains a non-addressable byte; the address is a
                    best-effort pointer at the offending area *)

val check : Giantsan_shadow.Shadow_mem.t -> l:int -> r:int -> outcome
(** [check m ~l ~r] safeguards [\[l, r)]. [l] must be 8-aligned (the paper's
    precondition; allocation bases always are — use [check_unaligned] for
    arbitrary [l]). Empty regions are [Safe_fast]. Regions of at most 64
    bytes take the word path ([Safe_word] when safe); larger regions run
    the scalar probes ([Safe_fast]/[Safe_slow]). Verdict and blamed address
    agree with [check_scalar] byte-for-byte on any shadow contents. *)

val check_unaligned : Giantsan_shadow.Shadow_mem.t -> l:int -> r:int -> outcome
(** [check] after aligning [l] down to a segment boundary. Sound for any
    region that starts inside an object (8-aligned object bases mean the
    aligned-down bytes belong to the same object). A blamed address is
    clamped up to [l], so it always lies in [[l, r)]: a segment's
    non-addressable bytes form a suffix, so a bad byte below [l] in its
    segment means [l] itself is bad. *)

val check_scalar : Giantsan_shadow.Shadow_mem.t -> l:int -> r:int -> outcome
(** The one-byte-at-a-time transcription of Algorithm 1, kept as a
    selectable slow path and as the word kernel's lockstep twin: [check]
    must agree with it exactly (verdict and blame) on arbitrary shadow
    contents, which the qcheck equivalence suite and the refinement
    harness enforce. Never returns [Safe_word]. *)

val is_safe : outcome -> bool
(** True for [Safe_fast], [Safe_slow] and [Safe_word]. *)

val count : Giantsan_sanitizer.Counters.t -> outcome -> unit
(** Charge one region check with this outcome to the counters:
    [region_checks], plus [fast_checks] (and [word_checks] for
    [Safe_word]) when safe on a fast path, else [slow_checks]. *)
