(** AddressSanitizer, the most widely deployed location-based sanitizer and
    the paper's main baseline.

    Protection is instruction-level: every access of width <= 8 costs one
    shadow load + compare (Example 1 of §2.2); larger operations and libc
    guardians ([memset], [strcpy], ...) scan the region's shadow linearly —
    the low-protection-density behaviour GiantSan attacks.

    The same runtime also backs ASan--: ASan-- differs only in *which*
    checks the instrumentation emits (redundant ones eliminated), not in how
    a check works. *)

val create :
  ?name:string -> Giantsan_memsim.Heap.config -> Giantsan_sanitizer.Sanitizer.t
(** [name] (default ["ASan"]) is the display name reports and traces carry;
    ASan-- is this runtime under ["ASan--"]. *)

val create_exposed :
  ?name:string ->
  Giantsan_memsim.Heap.config ->
  Giantsan_sanitizer.Sanitizer.t * Giantsan_shadow.Shadow_mem.t
(** Also hands back the shadow, for white-box consistency tests. *)

val check_access :
  Giantsan_shadow.Shadow_mem.t -> addr:int -> width:int -> bool
(** The raw single-access check (true = safe), exposed for tests and
    microbenchmarks. Width must be within [1..8]. *)

val region_is_safe :
  Giantsan_shadow.Shadow_mem.t -> lo:int -> hi:int -> int option
(** Linear guardian scan of [lo, hi): address of the first bad byte, [None]
    if clean. Loads one shadow byte per overlapped segment. *)
