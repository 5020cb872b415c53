(** The common sanitizer interface and the one runtime skeleton behind it.

    Every tool under study — Native (no protection), ASan, ASan--, GiantSan,
    LFP, PAC — is packaged as a value of type [t]: allocation hooks plus the
    runtime checks the instrumented program calls. The interpreter, the
    workload runner and the bug-detection harness are polymorphic over it.

    Every backend builds its [t] with {!make}, which owns what the tools
    share (GiantSan reuses ASan's allocator and runtime, §4.5): malloc/free
    bookkeeping and tracing, the free-error reports, the snapshot/restore
    slot and registry registration. A backend supplies only its metadata
    plane and its checks.

    Checks return [Report.t option] instead of raising: the paper runs all
    tools with [halt_on_error=false]. *)

type window = {
  mutable w_lo : int;  (** inclusive absolute lower edge *)
  mutable w_hi : int;  (** exclusive absolute upper edge *)
}
(** One history entry: a span of absolute addresses proven addressable when
    it was stored. Empty iff [w_lo >= w_hi]. *)

type cache = {
  mutable cache_base : int;  (** the pointer this cache belongs to *)
  windows : window array;
      (** MRU history, slot 0 most recent. Every non-empty window was proven
          addressable at store time, so eviction can never manufacture a
          claim. Windows carry a lower {e and} an upper edge, which is what
          lets descending and strided streams hit cache (the fig11
          reverse-traversal fix). *)
}
(** History-caching state (§4.3), generalized from the single quasi-bound
    slot into a small MRU window history. Non-caching sanitizers never call
    [cache_note], so every cached access falls back to a plain check. *)

val mru_slots : int
(** Number of history entries per cache (small by design — the UM's
    two-slot recent-segment idiom shows how cheap this is). *)

val new_cache : base:int -> cache
(** A cache with all windows empty (shared by every runtime). *)

val cache_hit : cache -> lo:int -> hi:int -> bool
(** Does some window cover [\[lo, hi)]? Promotes the covering window to the
    MRU front. Empty queries ([hi <= lo]) hit vacuously. Like [cache_note],
    allocation-free: windows move by value between slots. *)

val cache_note : cache -> lo:int -> hi:int -> unit
(** Record [\[lo, hi)] as proven addressable: merged with every
    overlapping-or-adjacent window (to fixpoint) and stored at the MRU
    front; the least recently used window is evicted if the slots overflow.
    Callers must only note spans a check just proved — the flush contract
    re-verifies exactly what was noted. *)

val cache_ub : cache -> int
(** The classic quasi-bound view: bytes above [cache_base] the history
    currently vouches for (0 when no window contains the base). Used by
    telemetry. *)

val cache_windows : cache -> (int * int) list
(** Non-empty [(w_lo, w_hi)] pairs in MRU order — for tests and
    diagnostics (it allocates; the check path walks [windows] itself). *)

type t = {
  name : string;
  heap : Giantsan_memsim.Heap.t;
  counters : Counters.t;
  hists : Giantsan_telemetry.Histogram.set;
      (** per-sanitizer telemetry histograms, populated only while the
          global telemetry switch ([Giantsan_telemetry.Trace]) is on *)
  shadow_loads : unit -> int;
      (** metadata loads performed so far (0 for tools without shadow) *)
  shadow_stores : unit -> int;
      (** metadata stores performed so far — the poisoning-side cost the
          batched kernels are measured by (0 for tools without shadow) *)
  malloc : ?kind:Giantsan_memsim.Memobj.kind -> int -> Giantsan_memsim.Memobj.t;
  free : int -> Report.t option;
  access : base:int -> addr:int -> width:int -> Report.t option;
      (** Check one [width]-byte access at [addr]. [base] is the anchor (the
          object's base pointer) when the instrumentation knows it, or [0]:
          anchor-aware tools (GiantSan) then protect [\[base, addr+width)];
          the others check only [\[addr, addr+width)]. *)
  check_region : lo:int -> hi:int -> Report.t option;
      (** Operation-level check of an arbitrary region (the [memset] /
          [strcpy] guardian): O(1) for GiantSan, linear for ASan. *)
  new_cache : base:int -> cache;
  cached_access : cache -> off:int -> width:int -> Report.t option;
      (** Access [base + off] under history caching (Figure 9). *)
  flush_cache : cache -> Report.t option;
      (** The final check after a cached loop (Figure 9 line 14): re-verify
          the whole quasi-bound to catch a deallocation that happened during
          the loop. No-op for non-caching tools. *)
  snapshot : unit -> unit;
      (** Fuzz-mode profile: capture the full sanitizer state — heap (arena,
          oracle, quarantine, object statuses), metadata plane (shadow with
          a dirty-segment journal armed, or the PAC signature table and salt
          counter) and counters — into the tool's single restore slot,
          overwriting any previous snapshot. *)
  restore : unit -> unit;
      (** Rewind to the snapshot: the heap state is reinstated, shadow-based
          tools re-poison only the segments dirtied since (the journal),
          PAC rolls back its salt counter and signature table, native only
          restores the heap. Counters are restored too, so a restored exec
          is event-count-identical to one on a freshly built sanitizer.
          Raises [Invalid_argument] if no snapshot was taken. *)
}

val report_access :
  name:string ->
  Giantsan_memsim.Heap.t ->
  Counters.t ->
  anchor:int ->
  addr:int ->
  size:int ->
  Report.t option
(** The report of a failed access check at [addr], shared by every
    runtime: counts one error, classifies [addr] against the heap
    ({!Report.classify_access}: an access below [anchor] is an underflow),
    emits the [report] trace event and returns [Some] report. *)

val free_error_report :
  name:string -> addr:int -> Giantsan_memsim.Heap.free_error -> Report.t option
(** Translate an allocator free error into a report ([Free_null] is benign
    and yields [None]). *)

val make :
  name:string ->
  ?detector:bool ->
  heap:Giantsan_memsim.Heap.t ->
  counters:Counters.t ->
  hists:Giantsan_telemetry.Histogram.set ->
  ?loads:(unit -> int) ->
  ?stores:(unit -> int) ->
  ?on_malloc:(Giantsan_memsim.Memobj.t -> unit) ->
  ?on_free:
    (freed:Giantsan_memsim.Memobj.t ->
    evicted:Giantsan_memsim.Memobj.t list ->
    unit) ->
  ?plane:(unit -> unit -> unit) ->
  access:(base:int -> addr:int -> width:int -> Report.t option) ->
  check_region:(lo:int -> hi:int -> Report.t option) ->
  cached_access:(cache -> off:int -> width:int -> Report.t option) ->
  ?flush_cache:(cache -> Report.t option) ->
  unit ->
  t
(** Build a backend over [heap] and register it with {!Registry}.

    [make] owns the shared runtime: [malloc]/[free] count into [counters]
    and emit [malloc]/[free] trace events; a failed free is classified by
    {!free_error_report}, counted and traced as a [report];
    [snapshot]/[restore] keep one slot over heap, plane and counters.
    [~detector:false] (Native) emits no events and reports no free errors.

    The backend supplies its metadata plane — [loads]/[stores] (default
    0), [on_malloc obj] and [on_free ~freed ~evicted] (poison or sign,
    after the allocator acted), and [plane ()], which captures the plane
    at snapshot time and returns its restorer — plus its four checks,
    stored exactly as passed ([flush_cache] defaults to a no-op). *)

(** Opt-in registry of every sanitizer instance created while it is
    enabled: the [--telemetry] CLI paths turn it on, run an experiment
    that internally builds thousands of short-lived sanitizers, and then
    snapshot the per-tool aggregate counters and histograms for
    [summary.json]. Only the (name, counters, histograms) triple is
    retained — never the heap — so registration is cheap.

    Registration from worker domains is mutex-protected (the cell list is
    the only cross-domain shared state in the system); [enable]/[disable]
    follow the initialized-before-fork discipline — flip them only while no
    worker domain is running, and call [snapshot] only once workers have
    been joined (the retained counter records are the runtimes' live,
    unsynchronised ones). Aggregation is commutative and the result sorted,
    so a parallel run snapshots exactly what the serial run would. *)
module Registry : sig
  val enable : unit -> unit
  val disable : unit -> unit
  val is_on : unit -> bool
  val clear : unit -> unit

  val register : t -> unit
  (** Called by every runtime constructor; no-op while disabled. *)

  val snapshot :
    unit ->
    (string * (string * int) list * Giantsan_telemetry.Histogram.set) list
  (** Aggregated by tool name (merged counters and histograms), sorted by
      name. *)
end
