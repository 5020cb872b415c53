(** Buffer-traversal kernels for the §5.4 limitation study (Figure 11).

    Three patterns over one buffer, written directly against the sanitizer
    API (no interpreter), so check work is all that separates backends:

    - {b forward}: ascending scan through the history cache — GiantSan's
      quasi-bound converges in O(log n) updates and everything else is a
      compare;
    - {b random}: uniform random probes through the cache — same
      convergence, which is where GiantSan wins biggest over ASan;
    - {b reverse}: descending scan through a pointer anchored at the high
      end, as Perl-style string code does. Every access sits below the
      anchor, the summary is single-sided, so GiantSan pays a fresh
      underflow region check per access — its documented weak spot, slower
      than ASan.

    Each kernel performs the same data loads, so Native / ASan / GiantSan
    runs differ only in check work. *)

type result = {
  t_checksum : int;  (** sum of loaded bytes: keeps the work honest *)
  t_shadow_loads : int;
  t_reports : int;
}

val forward :
  Giantsan_sanitizer.Sanitizer.t -> base:int -> size:int -> result
(** One ascending pass of 8-byte loads over [\[base, base+size)]. *)

val random :
  Giantsan_sanitizer.Sanitizer.t ->
  seed:int -> base:int -> size:int -> result
(** [size/8] probes at uniformly random 8-aligned offsets. *)

val reverse :
  Giantsan_sanitizer.Sanitizer.t -> base:int -> size:int -> result
(** One descending pass, anchored at the last element. *)

val reverse_prescan :
  Giantsan_sanitizer.Sanitizer.t -> base:int -> size:int -> result
(** The §5.4 mitigation: verify the whole span with one region check
    before the loop (O(1) for GiantSan, linear for ASan), then scan
    downward with no per-access metadata. Equivalent protection for a
    loop known to stay within [\[base, base+size)]. *)

val prepare :
  Giantsan_sanitizer.Sanitizer.t -> size:int -> int
(** Allocate and zero-fill a buffer; returns its base. *)
