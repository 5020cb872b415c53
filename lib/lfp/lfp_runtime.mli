(** LFP (low-fat pointers), the rounded-up-bound baseline (§2.1, §6).

    No shadow memory: an access is checked against bounds derived from the
    pointer value, i.e. from the size-class slot of the anchor pointer. The
    believed upper bound is the class size, not the requested size, so any
    overflow inside the rounding slack is missed; accesses whose anchor is
    unknown (tag-propagation failure) fall back to bounds derived from the
    faulting address itself and miss everything inside that slot. Freed
    slots are detected via the allocator's own metadata, which is how the
    LFP row of Table 3 still catches use-after-free and invalid frees. *)

val create : Giantsan_memsim.Heap.config -> Giantsan_sanitizer.Sanitizer.t
