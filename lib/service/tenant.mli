(** One tenant of the sanitizer service: a private arena / quarantine /
    shadow (its own {!Giantsan_core.Gs_runtime} instance), a seeded
    open-ended request stream, a bounded pending-request queue
    (backpressure), an HDR latency histogram, a sliding-window rate
    counter, and a bounded flight recorder of the last M service events.

    Isolation invariant: nothing in here is shared between tenants — not
    the heap, not the shadow, not the RNG streams, not the recorder — so
    one tenant's fault, OOM or quarantine can never perturb another
    tenant's results, and a quantum may execute on any pool domain
    ({!Loop} runs one task per tenant per tick; the pool's join publishes
    the mutations back before the serial control plane reads them).

    Determinism invariant: under a virtual {!Giantsan_telemetry.Clock}
    every observable (latencies, window rates, recorder contents,
    timestamps) is a pure function of [(id, seed)] — request latency is
    {e synthesized} from the sanitizer's own deterministic event counts
    (shadow loads/stores consumed by the request) plus seeded jitter,
    never from wall time. *)

type state = Healthy | Breached | Degraded | Quarantined

val state_name : state -> string

type config = {
  heap : Giantsan_memsim.Heap.config;
  backend : Giantsan_policy.Backend.id;
      (** which sanitizer runtime guards this tenant's arena *)
  virtual_clock : bool;
  window_ns : int;  (** rate-window width (virtual ns) *)
  windows : int;  (** sliding windows retained for the rate readout *)
  recorder_cap : int;  (** flight-recorder depth (last M events) *)
  queue_cap : int;  (** pending-request bound; arrivals past it shed *)
}

val default_config : config
(** 256 KiB arena, GiantSan backend, virtual clock, 10 us windows x 8,
    64-event recorder, 256-request queue. *)

type t

val create : id:int -> seed:int -> config -> t

val id : t -> int

val pac_key : t -> int
(** The tenant's private PA key, derived from [(seed, id)] at {!create}
    and stable across {!repartition} — tenants on the PAC backend sign
    under it, so a signature forged under one tenant's key never
    authenticates under another's. *)

val backend : t -> Giantsan_policy.Backend.id
(** The backend currently serving this tenant (changes on
    {!repartition}). *)

val state : t -> state
val set_state : t -> state -> unit
val now_ns : t -> int
val ops : t -> int
(** Requests served (lifetime). *)

val errors : t -> int
(** Sanitizer reports produced while serving (lifetime). *)

val shed : t -> int
(** Arrivals dropped by backpressure (queue full or tenant quarantined). *)

val breaches : t -> int
val breach_streak : t -> int
val set_breach_streak : t -> int -> unit
val queue_depth : t -> int
val latency : t -> Giantsan_telemetry.Latency.t
(** Lifetime latency histogram (mergeable into the global one). *)

val rate : t -> float
(** Ops/sec over the retained closed windows. *)

val windows_closed : t -> int

val tick_arrivals : t -> mean:int -> unit
(** One tick of the arrival process: draw this tick's burst size
    ([mean ± 2]) from the tenant's private arrival stream, generate that
    many requests from its request stream and enqueue them; requests past
    [queue_cap] (or arriving at a quarantined tenant) are shed. Generation
    always consumes the stream, so shedding never shifts later requests —
    the stream stays a pure function of the seed. Called serially by
    {!Loop} so the arrival stream stays off the worker domains entirely. *)

val run_quantum : t -> max_ops:int -> unit
(** Serve up to [max_ops] pending requests: execute each against the
    private sanitizer, synthesize (or measure) its latency, advance the
    tenant clock, and record the op + any reports into the rate window,
    the latency histograms and the flight recorder. Safe to call from a
    pool worker domain — touches only tenant-private state. *)

(** {1 Watchdog hooks (called serially by {!Loop})} *)

type window_stats = {
  ws_closed : int;  (** windows closed since the previous watchdog call *)
  ws_p999_ns : float;  (** p999 of the latencies since the previous call *)
  ws_error_rate : float;
  ws_ops_per_sec : float;
}

val poll_windows : t -> window_stats option
(** Roll the rate window to the tenant clock; [None] while no new window
    has closed since the last call, otherwise the stats of the elapsed
    window span (and the per-span histogram/error counters reset). *)

val record_breach : t -> Slo.breach -> unit
val record_state : t -> state -> unit
val record_fault : t -> detail:string -> unit

val repartition : t -> backend:Giantsan_policy.Backend.id -> unit
(** PartiSan-style downshift: rebuild the tenant on [backend] — a fresh
    private runtime (new arena, new metadata plane), queued requests shed
    (counted), slots cleared, any armed misfold disarmed, breach streak
    reset — and record a [Tenant_backend] event. Lifetime counters (ops,
    errors, shed, breaches, latency histograms) and the request streams
    carry over, so the run stays a pure function of [(id, seed)]. *)

(** {1 Chaos integration} *)

val plant_fault : t -> Giantsan_chaos.Fault.shadow_fault -> string
(** Plant a shadow-plane fault into {e this} tenant only: byte corruptions
    land in the tenant's private shadow immediately; [Misfold] arms a
    folding fault plan that [run_quantum] re-arms around every quantum (so
    it follows the tenant to whichever pool domain executes it). Returns a
    human-readable description. *)

val audit : t -> string option
(** Shadow-vs-oracle selfcheck ({!Giantsan_chaos.Selfcheck}) of the
    tenant's private planes; [Some detail] on the first mismatch. *)

val dump : t -> string list
(** Flight-recorder contents (the last [recorder_cap] events) as NDJSON
    lines, sequence numbers preserved from the tenant's own counter —
    byte-deterministic under the virtual clock. *)
