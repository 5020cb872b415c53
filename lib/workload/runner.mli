(** Execute workload profiles under every sanitizer configuration and
    collapse the event counts through the cost model. This is the engine
    behind Table 2 and Figure 10. *)

type config =
  | Native
  | Asan
  | Asanmm
  | Lfp
  | Pac  (** tagged-pointer authentication backend (lib/pac) *)
  | Giantsan
  | Cache_only  (** ablation: GiantSan with history caching only *)
  | Elim_only  (** ablation: GiantSan with check elimination only *)
      (** The sanitizer configurations of Table 2 ([Native] through
          [Giantsan]) plus the §5.2 ablations and the PAC backend. Each is
          a {!Giantsan_policy.Backend.id} times an instrumentation mode;
          the accessors below read that one table. *)

val backend : config -> Giantsan_policy.Backend.id
(** The runtime it builds: [Asanmm] runs ASan's, the ablations GiantSan's. *)

val instrument_mode : config -> Giantsan_analysis.Instrument.mode
(** How the static pipeline lowers checks for this configuration
    (e.g. [Elim_only] keeps elimination/promotion but never emits
    cached accesses). *)

val config_name : config -> string
(** Display label used in reports, tables, telemetry and NDJSON:
    ["Native"], ["ASan"], ["ASan--"], ["LFP"], ["PAC"], ["GiantSan"],
    ["CacheOnly"], ["EliminationOnly"]. *)

val runtime_name : config -> string
(** The built sanitizer's [name]: its mode's, e.g. ["GiantSan-ElimOnly"]. *)

val all_configs : config list
(** Native first, then the sanitizers, then the two ablations. [Pac] is
    deliberately absent: the pinned sweep / fuzz / chaos expectations
    enumerate the paper's tool set and must stay byte-stable. *)

val bench_configs : config list
(** [all_configs] plus [Pac] — what the bench profile sweep runs. *)

val make_sanitizer :
  ?heap:Giantsan_memsim.Heap.config -> config -> Giantsan_sanitizer.Sanitizer.t
(** A fresh private runtime: {!Giantsan_policy.Backend.create} under
    {!runtime_name}. [heap] defaults to an 8 MiB arena with the paper's
    redzone/quarantine settings. *)

type status =
  | Completed
  | Compile_error  (** the tool cannot build the project (LFP, Table 2) *)
  | Runtime_error

type result = {
  r_profile : string;
  r_config : config;
  r_status : status;
  r_ops : int;
  r_shadow_loads : int;
  r_shadow_stores : int;  (** metadata stores (poisoning traffic) *)
  r_counters : Giantsan_sanitizer.Counters.t;
  r_stats : Giantsan_analysis.Interp.exec_stats option;
  r_sim_ns : float;  (** simulated time; [nan] when not Completed *)
  r_reports : int;
}

val run_one :
  ?heap:Giantsan_memsim.Heap.config -> Specgen.profile -> config -> result
(** Execute one (profile, configuration) cell: build a fresh private
    sanitizer via {!make_sanitizer}, generate the profile's program,
    instrument and interpret it, and fold the event counts through the
    cost model. Deterministic — same inputs, bit-identical [result] —
    and self-contained, so cells may run on concurrent domains
    ({!Giantsan_parallel.Sweep}). *)

val run_profile : ?configs:config list -> Specgen.profile -> result list
(** [run_one] for each configuration ([all_configs] by default), in
    order. *)

val overhead_pct : native:float -> sanitized:float -> float
(** Sanitized time as a percentage of native, Table 2's headline number:
    [100 * sanitized / native] (so 146% means a 1.46x slowdown). *)
