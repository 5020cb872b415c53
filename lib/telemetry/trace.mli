(** The event sink: one bounded ring {e per domain} the runtimes emit into.
    Disabled by default, and the disabled path is a no-op that allocates
    nothing — the [emit_*] entry points take their payloads as immediate
    arguments and only build the event value once the switch has been
    checked (verified by the zero-allocation tests).

    The same switch gates histogram observation in the runtimes: when
    [is_on] is false the sanitizers run exactly the pre-telemetry code
    paths.

    {b The gate.} A process-wide atomic counts the sinks that are on.
    [is_on] and every emitter read it first: while no domain traces, the
    disabled path is that one atomic load — no [Domain.DLS] lookup, zero
    words allocated. Only when some sink is on does a query go on to its
    own domain's switch.

    {b Concurrency.} The sink lives in domain-local storage
    ([Domain.DLS]): every function below reads and mutates only the calling
    domain's switch and ring (the live count is the one shared word, and it
    only decides whether that switch is worth reading). A freshly spawned
    domain starts with tracing off, so worker domains emit nothing until
    they opt in — the parallel engine ({!Giantsan_parallel.Shard}) wraps
    each shard in [with_capture] to give it a private ring, and merges the
    captured event lists deterministically afterwards. A domain that exits
    with tracing on gives its share of the count back. *)

val is_on : unit -> bool

val sinks_on : unit -> int
(** How many domains' sinks are on right now: the live count [is_on]
    tests first. *)

val enable : ?capacity:int -> unit -> unit
(** Turn the sink on with a fresh ring ([capacity] defaults to 65536
    events; older events are overwritten past that). *)

val disable : unit -> unit
val clear : unit -> unit

val events : unit -> (int * Event.t) list
(** Retained events of the calling domain's sink, oldest first, each with
    its per-sink sequence number. *)

val emitted : unit -> int
(** Total events emitted since [enable]/[clear] (monotonic through
    wraparound). *)

val dropped : unit -> int

val with_capture : ?capacity:int -> (unit -> 'a) -> 'a * (int * Event.t) list
(** Run the thunk with tracing on in a private fresh ring, restoring the
    previous sink state afterwards (even on exceptions), and return the
    thunk's result with the captured events. Per-domain, like everything
    else here: captures on different domains never interleave. *)

(** {1 Emission points} — free functions so call sites stay one line. *)

val emit_malloc : tool:string -> base:int -> size:int -> kind:string -> unit
val emit_free : tool:string -> addr:int -> unit
val emit_access : tool:string -> addr:int -> width:int -> fast:bool -> unit
val emit_shadow_load : tool:string -> count:int -> unit
val emit_cache_hit : tool:string -> off:int -> unit
val emit_cache_update : tool:string -> ub:int -> unit

val emit_region_check :
  tool:string -> lo:int -> hi:int -> fast:bool -> loads:int -> unit

val emit_report : tool:string -> kind:string -> addr:int -> unit
val emit_phase_begin : name:string -> unit
val emit_phase_end : name:string -> unit
