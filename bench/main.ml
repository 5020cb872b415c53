(* Wall-clock benchmarks, one group per paper table/figure plus
   microbenchmarks of the primitives. Where Table 2 uses the event-count
   cost model (bin/main.exe table2), these benches time the actual OCaml
   implementations, so relative ordering (not absolute ns) is the point. *)

open Bechamel
open Toolkit
module Memsim = Giantsan_memsim
module San = Giantsan_sanitizer.Sanitizer
module Counters = Giantsan_sanitizer.Counters
module Telemetry = Giantsan_telemetry
module Shadow_mem = Giantsan_shadow.Shadow_mem
module SC = Giantsan_core.State_code
module Folding = Giantsan_core.Folding
module RC = Giantsan_core.Region_check
module Runner = Giantsan_workload.Runner
module Traversal = Giantsan_workload.Traversal
module Specgen = Giantsan_workload.Specgen
module Profiles = Giantsan_workload.Profiles
module Instrument = Giantsan_analysis.Instrument
module Interp = Giantsan_analysis.Interp
module Juliet = Giantsan_bugs.Juliet
module Magma = Giantsan_bugs.Magma
module Harness = Giantsan_bugs.Harness
module Backend = Giantsan_policy.Backend

let config =
  { Memsim.Heap.arena_size = 1 lsl 20; redzone = 16; quarantine_budget = 64 * 1024 }

(* ------------------------------------------------------------------ *)
(* Table 1 flavour: region checks, O(1) vs linear                      *)
(* ------------------------------------------------------------------ *)

let bench_region_check name make_san =
  Test.make ~name
    (Staged.stage
       (let san = make_san config in
        let obj = san.San.malloc 4096 in
        let base = obj.Memsim.Memobj.base in
        fun () -> ignore (san.San.check_region ~lo:base ~hi:(base + 4096))))

let bench_single_access name make_san =
  Test.make ~name
    (Staged.stage
       (let san = make_san config in
        let obj = san.San.malloc 4096 in
        let base = obj.Memsim.Memobj.base in
        fun () -> ignore (san.San.access ~base ~addr:(base + 128) ~width:8)))

let table1_group =
  (* the name suffix marks ASan's linear region scan *)
  let tools = Backend.[ (Giantsan, ""); (Asan, "(linear)"); (Lfp, "") ] in
  let each f =
    List.map (fun (id, note) -> f (Backend.name id) note (Backend.create id))
      tools
  in
  Test.make_grouped ~name:"table1"
    (each (fun n note mk -> bench_region_check (n ^ "/region-4KiB" ^ note) mk)
    @ each (fun n _ mk -> bench_single_access (n ^ "/access") mk))

(* ------------------------------------------------------------------ *)
(* Table 2 flavour: one representative profile per sanitizer           *)
(* ------------------------------------------------------------------ *)

let small_profile =
  {
    (Profiles.find "505.mcf_r") with
    Specgen.p_phases = 4;
    p_iters = 128;
    p_obj_size = 300;
  }

let bench_heap =
  { Memsim.Heap.arena_size = 1 lsl 18; redzone = 16; quarantine_budget = 16 * 1024 }

let bench_profile config_ =
  Test.make
    ~name:(Runner.config_name config_)
    (Staged.stage (fun () ->
         ignore (Runner.run_one ~heap:bench_heap small_profile config_)))

let table2_group =
  Test.make_grouped ~name:"table2"
    (List.map bench_profile Runner.all_configs)

(* ------------------------------------------------------------------ *)
(* Figure 10 flavour: instrumentation planning cost                    *)
(* ------------------------------------------------------------------ *)

let fig10_group =
  let prog = Specgen.generate small_profile in
  Test.make_grouped ~name:"fig10"
    (List.map
       (fun mode ->
         Test.make
           ~name:("plan/" ^ Instrument.mode_name mode)
           (Staged.stage (fun () -> ignore (Instrument.plan mode prog))))
       [ Instrument.Asan; Instrument.Asanmm; Instrument.Giantsan ])

(* ------------------------------------------------------------------ *)
(* Table 3 flavour: Juliet subset per tool                             *)
(* ------------------------------------------------------------------ *)

let juliet_subset =
  List.filteri (fun i _ -> i < 60) (Juliet.buggy_cases 122)

let table3_group =
  Test.make_grouped ~name:"table3"
    (List.map
       (fun tool ->
         Test.make
           ~name:("cwe122x60/" ^ Runner.config_name tool)
           (Staged.stage (fun () ->
                ignore (Harness.count_detected tool juliet_subset))))
       Harness.all_tools)

(* ------------------------------------------------------------------ *)
(* Table 4 flavour: the CVE corpus per tool                            *)
(* ------------------------------------------------------------------ *)

let table4_group =
  Test.make_grouped ~name:"table4"
    (List.map
       (fun tool ->
         Test.make
           ~name:("cves/" ^ Runner.config_name tool)
           (Staged.stage (fun () ->
                List.iter
                  (fun (c : Giantsan_bugs.Cves.t) ->
                    ignore (Harness.detected tool c.Giantsan_bugs.Cves.cve_scenario))
                  Giantsan_bugs.Cves.all)))
       Harness.all_tools)

(* ------------------------------------------------------------------ *)
(* Table 5 flavour: scaled php population, rz16 vs rz512               *)
(* ------------------------------------------------------------------ *)

let php_small =
  let p = List.hd Magma.projects in
  {
    p with
    Magma.mg_short = p.Magma.mg_short / 40;
    mg_mid = p.Magma.mg_mid / 40;
    mg_far = p.Magma.mg_far / 40;
    mg_latent = p.Magma.mg_latent / 40;
  }

let table5_group =
  let cases = Magma.cases php_small in
  Test.make_grouped ~name:"table5"
    (List.map
       (fun (tool, redzone) ->
         Test.make
           ~name:
             (Printf.sprintf "php/%s-rz%d"
                (Backend.name (Runner.backend tool))
                redzone)
           (Staged.stage (fun () ->
                ignore (Harness.count_detected ~redzone tool cases))))
       Runner.[ (Asan, 16); (Asan, 512); (Giantsan, 16) ])

(* ------------------------------------------------------------------ *)
(* Figure 11: the traversal patterns, timed for real                   *)
(* ------------------------------------------------------------------ *)

let fig11_bench name make_san kernel =
  Test.make ~name
    (Staged.stage
       (let san = make_san config in
        let base = Traversal.prepare san ~size:16384 in
        fun () -> ignore (kernel san ~base ~size:16384)))

let fig11_group =
  let forward san ~base ~size = Traversal.forward san ~base ~size in
  let random san ~base ~size = Traversal.random san ~seed:11 ~base ~size in
  let reverse san ~base ~size = Traversal.reverse san ~base ~size in
  Test.make_grouped ~name:"fig11"
    (List.concat_map
       (fun id ->
         let tname = Backend.name id and mk = Backend.create id in
         [
           fig11_bench (Printf.sprintf "forward-16KiB/%s" tname) mk forward;
           fig11_bench (Printf.sprintf "random-16KiB/%s" tname) mk random;
           fig11_bench (Printf.sprintf "reverse-16KiB/%s" tname) mk reverse;
         ])
       Backend.[ Native; Giantsan; Asan ])

(* ------------------------------------------------------------------ *)
(* Microbenchmarks of the primitives                                   *)
(* ------------------------------------------------------------------ *)

let micro_group =
  let m = Shadow_mem.create ~segments:65536 ~fill:SC.unallocated in
  Folding.poison_good_run m ~first_seg:0 ~count:60000;
  Test.make_grouped ~name:"micro"
    [
      Test.make ~name:"fold/poison-1000-segments"
        (Staged.stage (fun () ->
             Folding.poison_good_run m ~first_seg:0 ~count:1000));
      Test.make ~name:"fold/poison-1000-segments-scalar"
        (Staged.stage (fun () ->
             Folding.poison_good_run_scalar m ~first_seg:0 ~count:1000));
      Test.make ~name:"fold/ci-fast"
        (Staged.stage (fun () -> ignore (RC.check m ~l:0 ~r:1024)));
      Test.make ~name:"fold/ci-slow"
        (Staged.stage (fun () -> ignore (RC.check m ~l:0 ~r:(8 * 48000))));
      Test.make ~name:"fold/upper-bound-walk"
        (Staged.stage (fun () -> ignore (Folding.upper_bound m ~addr:8)));
      Test.make ~name:"alloc/malloc-free-64B"
        (Staged.stage
           (let san = Backend.create Backend.Giantsan config in
            fun () ->
              let obj = san.San.malloc 64 in
              ignore (san.San.free obj.Memsim.Memobj.base)));
      Test.make ~name:"alloc/asan-malloc-free-64B"
        (Staged.stage
           (let san = Backend.create Backend.Asan config in
            fun () ->
              let obj = san.San.malloc 64 in
              ignore (san.San.free obj.Memsim.Memobj.base)));
      Test.make ~name:"cache/hit"
        (Staged.stage
           (let san = Backend.create Backend.Giantsan config in
            let obj = san.San.malloc 1024 in
            let cache = san.San.new_cache ~base:obj.Memsim.Memobj.base in
            ignore (san.San.cached_access cache ~off:1016 ~width:8);
            fun () -> ignore (san.San.cached_access cache ~off:64 ~width:8)));
    ]

(* ------------------------------------------------------------------ *)
(* Encoding ablation: one region check under each encoding             *)
(* ------------------------------------------------------------------ *)

let ablation_group =
  let module Linear = Giantsan_core.Linear_encoding in
  let segments = 40000 in
  let size = 262144 in
  let m_asan =
    Shadow_mem.create ~segments ~fill:Giantsan_asan.Asan_encoding.unallocated
  in
  Shadow_mem.fill_range m_asan ~lo:0 ~hi:(size / 8)
    Giantsan_asan.Asan_encoding.good;
  let m_lin = Shadow_mem.create ~segments ~fill:SC.unallocated in
  Linear.poison_good_run m_lin ~first_seg:0 ~count:(size / 8);
  let m_fold = Shadow_mem.create ~segments ~fill:SC.unallocated in
  Folding.poison_good_run m_fold ~first_seg:0 ~count:(size / 8);
  Test.make_grouped ~name:"ablation"
    [
      Test.make ~name:"region-256KiB/asan-encoding"
        (Staged.stage (fun () ->
             ignore (Giantsan_asan.Asan_runtime.region_is_safe m_asan ~lo:0 ~hi:size)));
      Test.make ~name:"region-256KiB/run-length"
        (Staged.stage (fun () -> ignore (Linear.check m_lin ~l:0 ~r:size)));
      Test.make ~name:"region-256KiB/binary-folding"
        (Staged.stage (fun () -> ignore (RC.check m_fold ~l:0 ~r:size)));
    ]

let groups =
  [
    table1_group; table2_group; fig10_group; table3_group; table4_group;
    table5_group; fig11_group; ablation_group; micro_group;
  ]

let run_group test =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances test in
  let results = Analyze.merge ols instances [ Analyze.all ols Instance.monotonic_clock raw ] in
  let tbl = Hashtbl.find results (Measure.label Instance.monotonic_clock) in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (x :: _) -> x
          | _ -> nan
        in
        (name, ns) :: acc)
      tbl []
  in
  let rows = List.sort compare rows in
  List.iter
    (fun (name, ns) -> Printf.printf "  %-44s %12.1f ns/run\n" name ns)
    rows;
  rows

(* ------------------------------------------------------------------ *)
(* --telemetry [FILE]: BENCH_giantsan.json (schema in EXPERIMENTS.md)  *)
(* ------------------------------------------------------------------ *)

(* Bechamel has no CLI layer, so the flags are a plain argv scan. *)
let telemetry_path =
  let argv = Sys.argv in
  let n = Array.length argv in
  let rec scan i =
    if i >= n then None
    else if argv.(i) = "--telemetry" then
      if i + 1 < n && argv.(i + 1) <> "" && argv.(i + 1).[0] <> '-' then
        Some argv.(i + 1)
      else Some "BENCH_giantsan.json"
    else scan (i + 1)
  in
  scan 1

(* --profiles-only skips the wall-clock bechamel groups and runs just the
   deterministic profile sweep — what the CI perf gate compares against the
   committed baseline (wall-clock numbers vary per machine and are not
   gated, so CI need not pay for them). *)
let profiles_only = Array.exists (( = ) "--profiles-only") Sys.argv

(* --jobs N: domain-pool width for the profile sweep (default: one per
   recommended core). The sweep is simulated time over deterministic event
   counts, so every [jobs] value produces the same JSON body — the gate
   passes unchanged on a parallel run; only wall-clock shrinks. *)
let jobs =
  let argv = Sys.argv in
  let n = Array.length argv in
  let rec scan i =
    if i >= n then Giantsan_parallel.Pool.default_jobs ()
    else if argv.(i) = "--jobs" && i + 1 < n then
      match int_of_string_opt argv.(i + 1) with
      | Some j when j > 0 -> j
      | _ -> Giantsan_parallel.Pool.default_jobs ()
    else scan (i + 1)
  in
  scan 1

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
   16 KiB, reported as cost-model profiles. Unlike the wall-clock [fig11]
   bechamel group these are exact event counts, so the perf gate pins them
   against the committed baseline, and the CI fig11 leg can assert the
   reverse row's word-path ratio and the GiantSan-vs-ASan ordering. *)
let fig11_stats () =
  let module Cost_model = Giantsan_workload.Cost_model in
  let size = 16384 in
  let kernels =
    [
      ( "fig11.forward-16KiB",
        fun san ~base -> Traversal.forward san ~base ~size );
      ( "fig11.random-16KiB",
        fun san ~base -> Traversal.random san ~seed:11 ~base ~size );
      ( "fig11.reverse-16KiB",
        fun san ~base -> Traversal.reverse san ~base ~size );
    ]
  in
  List.concat_map
    (fun (pname, kernel) ->
      List.map
        (fun id ->
          let san = Backend.create id config in
          let base = Traversal.prepare san ~size in
          ignore (kernel san ~base);
          let c = san.San.counters in
          let sim_ns =
            Cost_model.simulated_ns
              {
                Cost_model.ops = size / 8;
                shadow_loads = san.San.shadow_loads ();
                counters = c;
                is_sanitized = id <> Backend.Native;
                is_lfp = false;
                stack_fraction = 0.0;
              }
          in
          profile_row ~profile:pname ~config:(Backend.name id) ~sim_ns
            ~ops:(size / 8) ~loads:(san.San.shadow_loads ())
            ~stores:(san.San.shadow_stores ()) c)
        Backend.[ Native; Giantsan; Asan; Pac ])
    kernels

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
  print_endline "GiantSan reproduction benchmarks (Bechamel)";
  print_endline "===========================================";
  let group_rows =
    if profiles_only then []
    else
      List.map
        (fun g ->
          let name = Test.name g in
          Printf.printf "\n[%s]\n" name;
          Telemetry.Span.with_span ("bench:" ^ name) (fun () ->
              (name, run_group g)))
        groups
  in
  match telemetry_path with
  | None -> ()
  | Some path ->
    let profiles =
      Telemetry.Span.with_span "bench:profile-sweep" profile_stats
      @ Telemetry.Span.with_span "bench:fig11-sweep" fig11_stats
      @ Telemetry.Span.with_span "bench:fuzzmode-sweep" fuzzmode_stats
    in
    let service = Telemetry.Span.with_span "bench:service" service_stats in
    let body =
      Telemetry.Export.bench_json ~groups:group_rows ~profiles ~service
        ~spans:(Telemetry.Span.completed ())
        ()
    in
    Telemetry.Export.write_file path body;
    Printf.printf "\nbench telemetry written to %s\n" path
