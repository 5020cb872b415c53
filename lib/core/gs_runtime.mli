(** The GiantSan runtime: folded poisoning + O(1) region checks +
    quasi-bound caching + anchor-based access checks, packaged behind the
    common {!Giantsan_sanitizer.Sanitizer.t} interface.

    Semantics of [access ~base]:
    - [base > 0] and [addr >= base]: anchor-based enhancement (§4.4.1) —
      check the whole [\[base, addr + width)] so an index large enough to
      jump over the redzone is still caught;
    - [base > 0] and [addr < base]: dedicated underflow check
      [CI(addr, base)];
    - [base = 0] (anchor unknown): plain [CI] over the accessed bytes only,
      the instruction-level fallback. *)

val create :
  ?name:string ->
  ?check_underflow:bool ->
  Giantsan_memsim.Heap.config ->
  Giantsan_sanitizer.Sanitizer.t
(** The full GiantSan runtime as evaluated in Table 2: folding, region
    checks, quasi-bound cache and underflow anchoring all enabled. Each
    call builds a private heap and shadow memory, so independently
    created runtimes never share mutable state (the property the sharded
    execution engine in [lib/parallel] relies on).

    [name] (default ["GiantSan"]) is the display name reports and traces
    carry; the §5.2 ablations run this same runtime under their own name
    and differ only in the checks the instrumentation emits.

    [?check_underflow:false] is the first §5.4 mitigation alternative:
    negative-offset accesses are no longer anchored (only the accessed
    bytes are checked, ASan-style), trading underflow precision for speed
    on reverse traversals. Default [true]. *)

val create_exposed :
  ?name:string ->
  ?check_underflow:bool ->
  Giantsan_memsim.Heap.config ->
  Giantsan_sanitizer.Sanitizer.t * Giantsan_shadow.Shadow_mem.t
(** Like [create] but also hands back the runtime's shadow memory, for
    debugging/visualization ({!Shadow_dump}) and white-box tests. *)
