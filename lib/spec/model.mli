(** The executable specification heap: the entire memsim + shadow world as
    a pure value (Fiat-style — a heap is a finite map, [alloc]/[free]/
    [memcpy]/[memset] are specification operations, and the GiantSan shadow
    is a {e pure function} of that state rather than mutable bytes).

    Every operation returns a new model; nothing here is mutable and
    nothing here is fast. That is the point: the refinement harness
    ([Refine]) runs the real, aggressively-optimized runtime and this model
    in lockstep and checks full-state equivalence after every step, so the
    unsafe kernels ([Shadow_mem.fill_range]/[blit_pattern], the memoized
    poison templates, [Region_check], [Quasi_bound]) are licensed by an
    obviously-correct contract instead of test-by-test folklore.

    Allocation is parameterized by the implementation's {e placement
    choice} ({!placement}): the allocator picks where a block goes, the
    spec validates that the pick satisfies the paper's layout invariants
    (alignment, redzones, null guard, no overlap with owned memory). *)

type status = Live | Quarantined

type obj = {
  o_id : int;
  o_kind : Giantsan_memsim.Memobj.kind;
  o_base : int;
  o_size : int;
  o_block_base : int;
  o_block_len : int;
  o_status : status;
}

type t

val create : Giantsan_memsim.Heap.config -> t
(** Empty model over the config's arena (rounded exactly as [Arena.create]
    rounds, so both worlds agree on where "outside" begins). *)

val arena_size : t -> int
val segments : t -> int
val live_bytes : t -> int

val quarantine_ids : t -> int list
(** Quarantined heap object ids, oldest first — the pure FIFO the real
    [Quarantine] must refine. *)

val quarantine_held : t -> int
val quarantine_length : t -> int
val quarantine_bypasses : t -> int

val find_object : t -> int -> obj option
(** Object whose block (redzones included) covers the address; [None]
    outside the arena or over unowned memory. *)

type placement = {
  p_id : int;
  p_base : int;
  p_block_base : int;
  p_block_len : int;
}

val placement_of_obj : Giantsan_memsim.Memobj.t -> placement

val alloc :
  t ->
  kind:Giantsan_memsim.Memobj.kind ->
  size:int ->
  placement ->
  (t, string) result
(** Record an allocation at the implementation's chosen placement, or
    explain which layout invariant the choice violates (a refinement
    failure, not a recoverable condition). *)

val free :
  t -> ptr:int -> (t, Giantsan_memsim.Heap.free_error) result
(** Free by pointer with the exact error taxonomy of [Heap.free]. Success
    pushes heap objects through the pure FIFO quarantine (evicting oldest
    blocks past the budget, never the newcomer, counting bypasses) and
    recycles stack/global objects immediately. *)

val flush_quarantine : t -> t
(** Evict everything — the model side of a pressure flush. *)

val peek_byte : t -> int -> int

val memset : t -> dst:int -> n:int -> int -> t
(** Clamp semantics of [Interceptors.clamped_fill]: negative destination is
    a no-op; the tail past the arena is dropped. *)

val memmove : t -> src:int -> dst:int -> n:int -> t
(** Clamp semantics of [Interceptors.clamped_blit], reading everything
    before writing anything (memmove overlap behaviour). *)

val blit_exact : t -> src:int -> dst:int -> len:int -> t

type byte_state = Unallocated | Addressable | Redzone | Freed

val byte_state : t -> int -> byte_state
val range_addressable : t -> lo:int -> hi:int -> bool

val code_in_object :
  live:bool ->
  kind:Giantsan_memsim.Memobj.kind ->
  base:int ->
  size:int ->
  int ->
  int
(** The one GiantSan code segment [seg] must carry inside an object's
    block, as a pure function of the object's geometry and liveness. Shared
    with [Giantsan_chaos.Selfcheck] so the model and the live audit can
    never disagree about what "correct" means. *)

val shadow_array : t -> int array
(** The whole reference shadow, one code per segment
    ([State_code.unallocated] over unowned memory). *)

val classify :
  t -> addr:int -> base:int option -> Giantsan_sanitizer.Report.kind
(** Mirror of [Report.classify_access] over the model state. *)
