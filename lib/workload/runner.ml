module Memsim = Giantsan_memsim
module San = Giantsan_sanitizer.Sanitizer
module Counters = Giantsan_sanitizer.Counters
module Instrument = Giantsan_analysis.Instrument
module Interp = Giantsan_analysis.Interp
module Backend = Giantsan_policy.Backend

type config =
  | Native
  | Asan
  | Asanmm
  | Lfp
  | Pac
  | Giantsan
  | Cache_only
  | Elim_only

(* The evaluation matrix, one row per configuration: the backend runtime
   it builds, the checks the instrumentation emits for it, and its report
   label. ASan-- and the §5.2 ablations are their base runtime under
   another plan mode (DESIGN.md §1); the runtime's display name is the
   mode's name. *)
type row = { backend : Backend.id; mode : Instrument.mode; label : string }

let row = function
  | Native -> { backend = Native; mode = Native; label = "Native" }
  | Asan -> { backend = Asan; mode = Asan; label = "ASan" }
  | Asanmm -> { backend = Asan; mode = Asanmm; label = "ASan--" }
  | Lfp -> { backend = Lfp; mode = Lfp; label = "LFP" }
  | Pac -> { backend = Pac; mode = Pac; label = "PAC" }
  | Giantsan -> { backend = Giantsan; mode = Giantsan; label = "GiantSan" }
  | Cache_only ->
    { backend = Giantsan; mode = Giantsan_cache_only; label = "CacheOnly" }
  | Elim_only ->
    { backend = Giantsan; mode = Giantsan_elim_only;
      label = "EliminationOnly" }

let backend c = (row c).backend
let instrument_mode c = (row c).mode
let config_name c = (row c).label
let runtime_name c = Instrument.mode_name (instrument_mode c)

let all_configs = [ Native; Giantsan; Asan; Asanmm; Lfp; Cache_only; Elim_only ]

(* The bench sweep's configuration list: the paper-reproduction set plus
   the PAC backend. Kept separate from [all_configs] so the pinned sweep /
   fuzz / chaos expectations (which enumerate the paper's tools) stay
   byte-stable. *)
let bench_configs = all_configs @ [ Pac ]

let heap_config =
  {
    Memsim.Heap.arena_size = 8 lsl 20;
    redzone = 16;
    quarantine_budget = 256 * 1024;
  }

let make_sanitizer ?(heap = heap_config) c =
  Backend.create ~name:(runtime_name c) (backend c) heap

type status = Completed | Compile_error | Runtime_error

type result = {
  r_profile : string;
  r_config : config;
  r_status : status;
  r_ops : int;
  r_shadow_loads : int;
  r_shadow_stores : int;
  r_counters : Counters.t;
  r_stats : Interp.exec_stats option;
  r_sim_ns : float;
  r_reports : int;
}

let lfp_status (p : Specgen.profile) =
  match p.Specgen.p_lfp_status with
  | `Ok -> Completed
  | `Compile_error -> Compile_error
  | `Runtime_error -> Runtime_error

let skipped p config status =
  {
    r_profile = p.Specgen.p_name;
    r_config = config;
    r_status = status;
    r_ops = 0;
    r_shadow_loads = 0;
    r_shadow_stores = 0;
    r_counters = Counters.create ();
    r_stats = None;
    r_sim_ns = nan;
    r_reports = 0;
  }

let run_one ?heap (p : Specgen.profile) config =
  match backend config with
  | Lfp when lfp_status p <> Completed -> skipped p config (lfp_status p)
  | id ->
    let san = make_sanitizer ?heap config in
    let prog = Specgen.generate p in
    let plan = Instrument.plan (instrument_mode config) prog in
    let out = Interp.run san plan prog in
    let input =
      {
        Cost_model.ops = out.Interp.ops;
        shadow_loads = san.San.shadow_loads ();
        counters = san.San.counters;
        is_sanitized = id <> Native;
        is_lfp = id = Lfp;
        stack_fraction = p.Specgen.p_stack_fraction;
      }
    in
    {
      r_profile = p.Specgen.p_name;
      r_config = config;
      r_status = Completed;
      r_ops = out.Interp.ops;
      r_shadow_loads = san.San.shadow_loads ();
      r_shadow_stores = san.San.shadow_stores ();
      r_counters = san.San.counters;
      r_stats = Some out.Interp.stats;
      r_sim_ns = Cost_model.simulated_ns input;
      r_reports = List.length out.Interp.reports;
    }

let run_profile ?(configs = all_configs) p =
  List.map (run_one p) configs

let overhead_pct ~native ~sanitized = 100.0 *. sanitized /. native
