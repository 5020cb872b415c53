(* The deterministic bench document, BENCH_giantsan.json (schema in
   EXPERIMENTS.md): the per-profile cost-model sweep, the Figure 11
   traversal rows and the fuzz-mode rows the perf gate judges, plus the
   service section. Every number is event counts through the cost model,
   so the document reproduces byte for byte; bench/e2e is the wall-clock
   harness.

     bench/main.exe --telemetry [FILE] [--jobs N] *)

module Memsim = Giantsan_memsim
module San = Giantsan_sanitizer.Sanitizer
module Counters = Giantsan_sanitizer.Counters
module Telemetry = Giantsan_telemetry
module Shadow_mem = Giantsan_shadow.Shadow_mem
module Runner = Giantsan_workload.Runner
module Specgen = Giantsan_workload.Specgen
module Profiles = Giantsan_workload.Profiles
module Backend = Giantsan_policy.Backend

let config =
  { Memsim.Heap.arena_size = 1 lsl 20; redzone = 16; quarantine_budget = 64 * 1024 }

let bench_heap =
  { Memsim.Heap.arena_size = 1 lsl 18; redzone = 16; quarantine_budget = 16 * 1024 }

(* The flags are a plain argv scan: [flag name] is [Some] the word after
   the first [name] ("" when it is last), [None] when [name] is absent. *)
let flag name =
  let argv = Sys.argv in
  let n = Array.length argv in
  let rec scan i =
    if i >= n then None
    else if argv.(i) = name then Some (if i + 1 < n then argv.(i + 1) else "")
    else scan (i + 1)
  in
  scan 1

(* --telemetry [FILE]: where the document goes (FILE when the next word is
   not another flag). *)
let telemetry_path =
  match flag "--telemetry" with
  | Some f when f <> "" && f.[0] <> '-' -> Some f
  | Some _ -> Some "BENCH_giantsan.json"
  | None -> None

(* --jobs N: domain-pool width for the profile sweep (default: one per
   recommended core). The sweep is simulated time over deterministic event
   counts, so every [jobs] value produces the same JSON body — the gate
   passes unchanged on a parallel run; only wall-clock shrinks. *)
let jobs =
  match Option.bind (flag "--jobs") int_of_string_opt with
  | Some j when j > 0 -> j
  | _ -> Giantsan_parallel.Pool.default_jobs ()

(* One exported profile row: the event counts a run left behind. *)
let profile_row ~profile ~config ~sim_ns ~ops ~loads ~stores c =
  {
    Telemetry.Export.bp_profile = profile;
    bp_config = config;
    bp_sim_ns = sim_ns;
    bp_ops = ops;
    bp_shadow_loads = loads;
    bp_shadow_stores = stores;
    bp_region_checks = c.Counters.region_checks;
    bp_fast_checks = c.Counters.fast_checks;
    bp_slow_checks = c.Counters.slow_checks;
    bp_word_checks = c.Counters.word_checks;
  }

(* Per-profile simulated cost under every sanitizer configuration, at a
   reduced scale so the sweep stays in seconds, sharded across the domain
   pool (one cell = one private heap/shadow/sanitizer). LFP's compile-error
   profiles report [nan] sim time and are skipped. *)
let profile_stats () =
  let shrink p = { p with Specgen.p_phases = 4; p_iters = 128 } in
  let outcome =
    Giantsan_parallel.Sweep.run ~heap:bench_heap ~jobs
      ~profiles:(List.map shrink Profiles.all)
      ~configs:Runner.bench_configs ()
  in
  List.filter_map
    (fun (r : Runner.result) ->
      if r.Runner.r_status <> Runner.Completed then None
      else
        Some
          (profile_row ~profile:r.Runner.r_profile
             ~config:(Runner.config_name r.Runner.r_config)
             ~sim_ns:r.Runner.r_sim_ns ~ops:r.Runner.r_ops
             ~loads:r.Runner.r_shadow_loads ~stores:r.Runner.r_shadow_stores
             r.Runner.r_counters))
    (Array.to_list outcome.Giantsan_parallel.Sweep.o_results)

(* Deterministic Figure 11 rows: the three traversal kernels per tool at
   16 KiB, reported as cost-model profiles. They are exact event counts,
   so the perf gate pins them against the committed baseline and asserts
   the reverse row's word-path ratio and the GiantSan-vs-ASan ordering. *)
let fig11_stats () =
  List.concat_map
    (fun pattern ->
      List.map
        (fun id ->
          Giantsan_report.Experiments.fig11_row id ~pattern ~size:16384)
        Backend.[ Native; Giantsan; Asan; Pac ])
    [ `Forward; `Random; `Reverse ]

(* Fuzz-mode throughput rows: per-exec reset cost under the two execution
   profiles, for every policy backend. One measured pass drives both
   projections — the engine's determinism tests prove a restored sanitizer
   is event-count-identical to a fresh one, so the exec-side event counts
   are shared and only the reset term differs:

     rebuild     charges a full construction per exec (allocate + initialise
                 the arena, fill the whole shadow plane / signature table);
     persistent  charges one construction up front, then per exec a bulk
                 arena blit plus the journal-guided shadow repair
                 ([Shadow_mem.journal_segments]), the PAC table rewind
                 (signs delta) and the object-map rewind (allocator events).

   Everything is event counts through the calibrated weight table — no
   wall-clock — so the rows reproduce byte-identically and the perf gate
   pins them. [bp_ops] is the number of execs, making the exported ns/op a
   per-exec cost: execs/sec = 1e9 / ns_per_op, which is what the
   gate CLI asserts the persistent/rebuild speedup on. *)
let fuzzmode_stats () =
  let module Cost_model = Giantsan_workload.Cost_model in
  let module Difftest = Giantsan_bugs.Difftest in
  let module Scenario = Giantsan_bugs.Scenario in
  let module Pac = Giantsan_pac.Pac in
  let violations =
    [
      Difftest.V_overflow; Difftest.V_underflow; Difftest.V_far_jump;
      Difftest.V_uaf; Difftest.V_double_free; Difftest.V_mid_free;
    ]
  in
  let batch =
    List.init 24 (fun i ->
        if i mod 2 = 0 then Difftest.gen_clean ~seed:i
        else
          Difftest.gen_buggy ~seed:i
            (List.nth violations (i / 2 mod List.length violations)))
  in
  let n = List.length batch in
  (* reset-model constants, in the same abstract-ns currency as the
     calibrated weights: a fresh construction touches every byte once
     (calloc-style zeroing plus poisoning), a restore is a bulk memcpy over
     already-mapped pages — an order of magnitude cheaper per byte — and a
     metadata-entry rewind costs one allocator-bookkeeping event *)
  let w = Cost_model.default in
  let w_init = w.Cost_model.w_poison_segment in
  let w_blit = w_init /. 16.0 in
  let arena_bytes = config.Memsim.Heap.arena_size in
  List.map
    (fun id ->
      let san, plane = Backend.create_exposed id config in
      san.San.snapshot ();
      let loads0 = san.San.shadow_loads ()
      and stores0 = san.San.shadow_stores () in
      let signs0 =
        match plane with Backend.Sigs p -> Pac.signs p | _ -> 0
      in
      let exec_counters = Counters.create () in
      let ops = ref 0
      and shadow_loads = ref 0
      and shadow_stores = ref 0
      and journal_total = ref 0
      and signs_total = ref 0 in
      List.iter
        (fun sc ->
          (try ignore (Scenario.run san sc) with
          | Failure _ | Out_of_memory -> ());
          ops := !ops + List.length sc.Scenario.sc_steps;
          shadow_loads := !shadow_loads + (san.San.shadow_loads () - loads0);
          shadow_stores :=
            !shadow_stores + (san.San.shadow_stores () - stores0);
          (match plane with
          | Backend.Shadow m ->
            journal_total := !journal_total + Shadow_mem.journal_segments m
          | Backend.Sigs p ->
            signs_total := !signs_total + (Pac.signs p - signs0)
          | Backend.Plain -> ());
          Counters.add exec_counters san.San.counters;
          san.San.restore ())
        batch;
      let shadow_segs =
        match plane with Backend.Shadow m -> Shadow_mem.segments m | _ -> 0
      in
      let exec_ns =
        Cost_model.simulated_ns
          {
            Cost_model.ops = !ops;
            shadow_loads = !shadow_loads;
            counters = exec_counters;
            is_sanitized = id <> Backend.Native;
            is_lfp = id = Backend.Lfp;
            stack_fraction = 0.0;
          }
      in
      let construct_ns =
        float_of_int (arena_bytes + shadow_segs) *. w_init
      in
      let map_events =
        exec_counters.Counters.mallocs + exec_counters.Counters.frees
      in
      let restore_ns =
        (float_of_int (n * arena_bytes) *. w_blit)
        +. (float_of_int !journal_total *. w_blit)
        +. (float_of_int (!signs_total + map_events) *. w.Cost_model.w_free)
      in
      let row profile sim_ns =
        profile_row ~profile ~config:(Backend.name id) ~sim_ns ~ops:n
          ~loads:!shadow_loads ~stores:!shadow_stores exec_counters
      in
      [
        row "fuzzmode.rebuild" ((float_of_int n *. construct_ns) +. exec_ns);
        row "fuzzmode.persistent" (construct_ns +. exec_ns +. restore_ns);
      ])
    Backend.all
  |> List.concat

(* Sustained-traffic numbers from the multi-tenant service loop under the
   virtual clock: fully deterministic (latencies are synthesized from the
   sanitizer's own event counts), so the rows are identical across machines
   and across [jobs] — they ride in the bench JSON as a "service" section
   the perf gate ignores. *)
let service_stats () =
  let module Loop = Giantsan_service.Loop in
  let module Policy = Giantsan_policy.Policy in
  let base_cfg =
    { Loop.default_config with Loop.tenants = 4; seed = 11; ticks = 64; jobs }
  in
  let plain = Loop.service_rows (Loop.run base_cfg) in
  (* the same fleet under the default policy spec: tenants start on the
     policy's backend assignment, so the rows measure the policy engine's
     steady-state cost rather than GiantSan's — prefixed so the two row
     sets stay distinguishable in the one "service" section *)
  let policied =
    let cfg = { base_cfg with Loop.policy = Some Policy.default } in
    List.map
      (fun r ->
        {
          r with
          Telemetry.Export.sv_scope =
            "policy." ^ r.Telemetry.Export.sv_scope;
        })
      (Loop.service_rows (Loop.run cfg))
  in
  plain @ policied

let () =
  match telemetry_path with
  | None ->
    prerr_endline "usage: bench/main.exe --telemetry [FILE] [--jobs N]";
    exit 2
  | Some path ->
    let profiles = profile_stats () @ fig11_stats () @ fuzzmode_stats () in
    let body =
      Telemetry.Export.bench_json ~profiles ~service:(service_stats ()) ()
    in
    Telemetry.Export.write_file path body;
    Printf.printf "bench telemetry written to %s\n" path
