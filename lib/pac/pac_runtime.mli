(** The PAC backend behind the common {!Giantsan_sanitizer.Sanitizer.t}
    interface: sign on alloc, authenticate on every access and region
    check, strip on free.

    Semantics of a check on [\[lo, hi)] with anchor [a]:
    - the signing allocation is recovered through the allocator's object
      index (the same licence LFP takes for its bound table — the common
      interface passes untagged addresses, see the adapter note in
      [pac_runtime.ml]);
    - a freed or never-allocated anchor fails authentication (stale);
    - a live anchor whose signature fails {!Pac.check} (tag-forge) is a
      wild access;
    - an authenticated pointer is then held to the {e exact} signed bounds
      [\[base, base + size)] — no size-class rounding, no redzone slack.

    Every check costs exactly one authentication ([auth_checks]; one
    metadata load), so region checks are O(1). [shadow_loads]/
    [shadow_stores] report the signature-table traffic. *)

val create :
  ?key:int -> Giantsan_memsim.Heap.config -> Giantsan_sanitizer.Sanitizer.t
(** A fresh PAC runtime over a private heap and signature table. [key]
    seeds the PA key (defaults to {!Pac.default_key}). *)

val create_exposed :
  ?key:int ->
  Giantsan_memsim.Heap.config ->
  Giantsan_sanitizer.Sanitizer.t * Pac.t
(** Like [create] but also hands back the signature table, for white-box
    tests, the tag-forge chaos plane and the service tenant audit. *)
