(* giantsan-repro: run the paper's experiments.

   Subcommands: one per table/figure, plus `all`. Each prints its rendered
   report to stdout and can optionally append to a file. *)

open Cmdliner

let write_out path body =
  match path with
  | None -> ()
  | Some p ->
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 p in
    output_string oc body;
    output_string oc "\n";
    close_out oc

(* Run [f] with the telemetry subsystem live (event sink + sanitizer
   registry + span log) and write the summary JSON afterwards. *)
let with_telemetry telemetry f =
  match telemetry with
  | None -> f ()
  | Some path ->
    let module T = Giantsan_telemetry in
    let module Registry = Giantsan_sanitizer.Sanitizer.Registry in
    T.Trace.enable ();
    Registry.enable ();
    T.Span.reset ();
    Fun.protect
      ~finally:(fun () ->
        let body =
          T.Export.summary_json
            ~spans:(T.Span.completed ())
            ~tools:(Registry.snapshot ())
            ()
        in
        T.Export.write_file path body;
        Registry.disable ();
        Registry.clear ();
        T.Trace.disable ();
        Printf.eprintf "telemetry summary written to %s\n" path)
      f

let run_ids ids quick jobs out telemetry =
  with_telemetry telemetry (fun () ->
      List.iter
        (fun id ->
          let o = Giantsan_report.Experiments.run ~quick ~jobs id in
          print_string o.Giantsan_report.Experiments.o_body;
          print_newline ();
          write_out out o.Giantsan_report.Experiments.o_body)
        ids;
      0)

let quick_flag =
  let doc = "Smaller populations / fewer profiles (smoke-test mode)." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let jobs_arg =
  let doc =
    "Shard the parallelizable work across $(docv) domains (0 = one per \
     recommended core). Results are byte-identical for every value; only \
     wall-clock changes."
  in
  let resolve n =
    if n <= 0 then Giantsan_parallel.Pool.default_jobs () else n
  in
  Term.(
    const resolve
    $ Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc))

(* like [jobs_arg] but defaulting to the recommended domain count — for the
   subcommands whose whole point is the parallel sweep *)
let jobs_default_parallel =
  let doc =
    "Domain-pool size (0 = one per recommended core). Results are \
     byte-identical for every value; only wall-clock changes."
  in
  let resolve n =
    if n <= 0 then Giantsan_parallel.Pool.default_jobs () else n
  in
  Term.(
    const resolve
    $ Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~docv:"N" ~doc))

let out_file =
  let doc = "Append the rendered report to $(docv)." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let telemetry_file =
  let doc =
    "Run with the telemetry subsystem enabled (event tracing, per-tool \
     metric registry, span profiling) and write the summary JSON to \
     $(docv)."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry" ] ~docv:"FILE" ~doc)

let experiment_cmd id title =
  let doc = Printf.sprintf "Reproduce the paper's %s." title in
  Cmd.v
    (Cmd.info id ~doc)
    Term.(
      const (fun quick jobs out telemetry ->
          run_ids [ id ] quick jobs out telemetry)
      $ quick_flag $ jobs_arg $ out_file $ telemetry_file)

let all_cmd =
  let doc = "Run every experiment (all tables and figures)." in
  Cmd.v
    (Cmd.info "all" ~doc)
    Term.(
      const (fun quick jobs out telemetry ->
          run_ids Giantsan_report.Experiments.all_ids quick jobs out telemetry)
      $ quick_flag $ jobs_arg $ out_file $ telemetry_file)

let extras_cmd =
  let doc =
    "Run the extension experiments (encoding ablation, redzone sweep, \
     quarantine sweep)."
  in
  Cmd.v
    (Cmd.info "extras" ~doc)
    Term.(
      const (fun quick jobs out telemetry ->
          run_ids Giantsan_report.Experiments.extra_ids quick jobs out
            telemetry)
      $ quick_flag $ jobs_arg $ out_file $ telemetry_file)

let fuzz_matrix_cmd =
  let doc =
    "One-shot differential fuzzing: independent random scenarios across \
     every tool, reporting detection matrices and anomalies (the \
     pre-coverage-guided loop; see $(b,fuzz) for the evolutionary one)."
  in
  let seed =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"Base seed.")
  in
  let count =
    Arg.(
      value & opt int 100
      & info [ "count" ] ~docv:"N" ~doc:"Scenarios per population.")
  in
  Cmd.v
    (Cmd.info "fuzz-matrix" ~doc)
    Term.(
      const (fun seed count jobs out ->
          let body = Giantsan_report.Corpus_tools.fuzz ~jobs ~seed ~count () in
          print_string body;
          write_out out body;
          0)
      $ seed $ count $ jobs_arg $ out_file)

let fuzz_cmd =
  let doc =
    "Coverage-guided differential fuzzing: evolve a corpus of scenarios by \
     mutation, chase new coverage features, and shrink any cross-sanitizer \
     divergence to a minimal reproducer. Deterministic for a fixed \
     ($(b,--seed), $(b,--runs)) pair."
  in
  let seed =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"Rng seed.")
  in
  let runs =
    Arg.(
      value & opt int 2000
      & info [ "runs" ] ~docv:"N" ~doc:"Mutation-execution iterations.")
  in
  let minimize =
    Arg.(
      value & flag
      & info [ "minimize" ]
          ~doc:"Shrink findings to minimal reproducers before reporting.")
  in
  let inject_misfold =
    Arg.(
      value & flag
      & info [ "inject-misfold" ]
          ~doc:
            "Plant a deliberate folding bug (an overstated degree on each \
             object's last segment) and let the fuzzer find it — the \
             subsystem's self-test.")
  in
  let corpus_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus-dir" ] ~docv:"DIR"
          ~doc:
            "Write every (shrunk) finding to $(docv) as a replayable corpus \
             file.")
  in
  let mode =
    Arg.(
      value
      & opt (enum [ ("rebuild", Giantsan_fuzz.Exec.Rebuild);
                    ("persistent", Giantsan_fuzz.Exec.Persistent) ])
          Giantsan_fuzz.Exec.Rebuild
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "Execution profile: $(b,rebuild) constructs a fresh sanitizer \
             per exec; $(b,persistent) snapshots each tool once and \
             restores between execs (incremental shadow re-poisoning, PAC \
             salt rollback). Verdicts and findings are identical.")
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(
      const (fun seed runs minimize inject_misfold corpus_dir mode out ->
          let summary =
            Giantsan_fuzz.Engine.run
              { Giantsan_fuzz.Engine.runs; seed; minimize; inject_misfold;
                mode }
          in
          let body = Giantsan_fuzz.Engine.summary_to_string summary in
          print_string body;
          write_out out body;
          (match corpus_dir with
          | None -> ()
          | Some dir ->
            if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
            List.iter
              (fun f ->
                Giantsan_fuzz.Corpus.save_file
                  ~trace:f.Giantsan_fuzz.Engine.f_trace
                  (Filename.concat dir
                     (f.Giantsan_fuzz.Engine.f_id ^ ".scn"))
                  f.Giantsan_fuzz.Engine.f_scenario)
              summary.Giantsan_fuzz.Engine.s_findings);
          if summary.Giantsan_fuzz.Engine.s_divergent_runs > 0 then 1 else 0)
      $ seed $ runs $ minimize $ inject_misfold $ corpus_dir $ mode
      $ out_file)

let replay_cmd =
  let doc =
    "Replay a corpus directory: parse every scenario file, run it across \
     all tools, and fail on any parse error, label drift or divergence."
  in
  let dir =
    Arg.(
      value
      & pos 0 string "test/corpus/regressions"
      & info [] ~docv:"DIR" ~doc:"Corpus directory.")
  in
  let mode =
    Arg.(
      value
      & opt (enum [ ("rebuild", Giantsan_fuzz.Exec.Rebuild);
                    ("persistent", Giantsan_fuzz.Exec.Persistent) ])
          Giantsan_fuzz.Exec.Rebuild
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "Execution profile (see $(b,fuzz --mode)). Replay output must \
             be byte-identical between modes — the CI leg compares them.")
  in
  Cmd.v (Cmd.info "replay" ~doc)
    Term.(
      const (fun dir mode ->
          if not (Sys.file_exists dir && Sys.is_directory dir) then begin
            Printf.eprintf "replay: no such corpus directory: %s\n" dir;
            2
          end
          else begin
            let results = Giantsan_fuzz.Engine.replay ~mode ~dir () in
            let bad = ref 0 in
            List.iter
              (fun (name, problems) ->
                match problems with
                | [] -> Printf.printf "%-40s OK\n" name
                | ps ->
                  incr bad;
                  Printf.printf "%-40s FAIL\n" name;
                  List.iter (fun p -> Printf.printf "    %s\n" p) ps)
              results;
            Printf.printf "%d file(s), %d failing\n" (List.length results) !bad;
            if !bad > 0 then 1 else 0
          end)
      $ dir $ mode)

let trace_cmd =
  let doc =
    "Replay one corpus scenario across every sanitizer with the event \
     tracer on and print the combined NDJSON trace (events carry a \
     $(b,tool) field). Deterministic: the same file always prints \
     byte-identical lines."
  in
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE.scn" ~doc:"Scenario file (corpus format).")
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const (fun file ->
          match Giantsan_fuzz.Corpus.load_file file with
          | Error e ->
            Printf.eprintf "trace: %s: %s\n" file e;
            2
          | Ok sc ->
            let lines = Giantsan_fuzz.Exec.capture_trace sc in
            List.iter print_endline lines;
            if lines = [] then begin
              Printf.eprintf "trace: %s produced no events\n" file;
              1
            end
            else 0)
      $ file)

let check_ndjson_cmd =
  let doc =
    "Validate an NDJSON trace dump: every non-empty line must be one JSON \
     object with an $(b,ev) string field naming a known event kind and a \
     non-negative $(b,seq) int field."
  in
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"NDJSON file to validate.")
  in
  let lax =
    Arg.(
      value & flag
      & info [ "lax" ]
          ~doc:
            "Accept unknown $(b,ev) kinds (shape checks only) — the escape \
             hatch for dumps produced by a newer writer.")
  in
  Cmd.v
    (Cmd.info "check-ndjson" ~doc)
    Term.(
      const (fun file lax ->
          match In_channel.with_open_text file In_channel.input_all with
          | exception Sys_error e ->
            Printf.eprintf "check-ndjson: %s\n" e;
            2
          | text -> (
            match Giantsan_telemetry.Export.check_ndjson ~lax text with
            | Ok n ->
              Printf.printf "%s: %d event line(s) OK\n" file n;
              0
            | Error e ->
              Printf.eprintf "check-ndjson: %s: %s\n" file e;
              2))
      $ file $ lax)

let gate_cmd =
  let module E = Giantsan_telemetry.Export in
  let doc =
    "Bench gate: judge a fresh BENCH_giantsan.json against the committed \
     baseline with one rule table. Deterministic event counts must match \
     exactly and ns/op may drift within ±25%; the Figure 11 reverse row \
     must settle at least half its region checks on the word path with \
     GiantSan no slower than ASan; every fuzz-mode backend must show \
     identical counts across modes with persistent never slower, and \
     GiantSan's persistent speedup must reach 5x. Only the profiles \
     section is read. Exits 1 on a violation, 2 on unreadable or \
     unparsable input or missing fig11/fuzzmode rows."
  in
  let file n docv doc =
    Arg.(required & pos n (some string) None & info [] ~docv ~doc)
  in
  Cmd.v
    (Cmd.info "gate" ~doc)
    Term.(
      const (fun baseline current ->
          let read path =
            In_channel.with_open_text path In_channel.input_all
          in
          match E.gate ~baseline:(read baseline) ~current:(read current) with
          | exception Sys_error e ->
            Printf.eprintf "gate: %s\n" e;
            2
          | E.Unusable e ->
            Printf.eprintf "gate: %s\n" e;
            2
          | E.Violations vs ->
            Printf.eprintf "gate FAILED (%d violation(s)):\n" (List.length vs);
            List.iter (fun (r, msg) -> Printf.eprintf "  [%s] %s\n" r msg) vs;
            1
          | E.Pass judged ->
            Printf.printf "gate OK: %d rules hold (row pairs judged):\n"
              (List.length judged);
            List.iter (fun (r, n) -> Printf.printf "  %-20s %d\n" r n) judged;
            0)
      $ file 0 "BASELINE" "Committed baseline JSON."
      $ file 1 "CURRENT" "Freshly generated bench JSON.")

let sweep_cmd =
  let module Sweep = Giantsan_parallel.Sweep in
  let module Merge = Giantsan_parallel.Merge in
  let module Specgen = Giantsan_workload.Specgen in
  let module Profiles = Giantsan_workload.Profiles in
  let module Runner = Giantsan_workload.Runner in
  let doc =
    "Run the full profile x config matrix on a domain pool and print a \
     deterministic summary. Event counts, merged counters and the \
     $(b,--ndjson) trace are byte-identical for every $(b,--jobs) value \
     and any $(b,--shuffle) submission order — the CI determinism leg \
     diffs exactly this."
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:
            "Reduced scale (4 phases / 128 iterations per profile — the \
             same shrink the bench profile sweep uses).")
  in
  let shuffle =
    Arg.(
      value
      & opt (some int) None
      & info [ "shuffle" ] ~docv:"SEED"
          ~doc:
            "Submit the cells to the pool in a seeded random order instead \
             of canonical order (results are de-permuted back, so output \
             must not change — that is the point).")
  in
  let ndjson =
    Arg.(
      value
      & opt (some string) None
      & info [ "ndjson" ] ~docv:"FILE"
          ~doc:
            "Capture each cell's trace in a private per-shard ring and \
             write the deterministically merged NDJSON to $(docv).")
  in
  let capacity =
    Arg.(
      value & opt int 1024
      & info [ "capacity" ] ~docv:"N"
          ~doc:"Per-shard trace ring capacity (with $(b,--ndjson)).")
  in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(
      const (fun jobs quick shuffle ndjson capacity ->
          let profiles =
            if quick then
              List.map
                (fun p -> { p with Specgen.p_phases = 4; p_iters = 128 })
                Profiles.all
            else Profiles.all
          in
          let configs = Runner.all_configs in
          let n = List.length profiles * List.length configs in
          let order =
            Option.map
              (fun seed ->
                let o = Array.init n Fun.id in
                Giantsan_util.Rng.shuffle (Giantsan_util.Rng.create seed) o;
                o)
              shuffle
          in
          (* jobs/shuffle only to stderr: stdout and the NDJSON file must
             diff clean across schedules *)
          Printf.eprintf "sweep: %d cells on %d domain(s)%s\n%!" n jobs
            (match shuffle with
            | None -> ""
            | Some s -> Printf.sprintf ", submission shuffled (seed %d)" s);
          let outcome =
            Sweep.run ?order ~trace:(ndjson <> None) ~capacity ~jobs
              ~profiles ~configs ()
          in
          let completed =
            List.filter
              (fun r -> r.Runner.r_status = Runner.Completed)
              (Array.to_list outcome.Sweep.o_results)
          in
          let merged =
            Merge.counters
              (List.map (fun r -> r.Runner.r_counters) completed)
          in
          let sum f = List.fold_left (fun acc r -> acc + f r) 0 completed in
          Printf.printf "%d/%d cells completed (%d profiles x %d configs)\n"
            (List.length completed) n (List.length profiles)
            (List.length configs);
          Printf.printf "ops=%d shadow_loads=%d shadow_stores=%d\n"
            (sum (fun r -> r.Runner.r_ops))
            (sum (fun r -> r.Runner.r_shadow_loads))
            (sum (fun r -> r.Runner.r_shadow_stores));
          Format.printf "merged counters:@.%a@."
            Giantsan_sanitizer.Counters.pp merged;
          (match ndjson with
          | None -> ()
          | Some path ->
            let lines = Sweep.ndjson outcome in
            let oc = open_out path in
            List.iter
              (fun l ->
                output_string oc l;
                output_char oc '\n')
              lines;
            close_out oc;
            Printf.printf "trace: %d merged events -> %s\n"
              (List.length lines) path);
          0)
      $ jobs_default_parallel $ quick $ shuffle $ ndjson $ capacity)

(* Catch allocator exhaustion inside the term (cmdliner would otherwise
   convert the escaping exception into its generic 125): diagnostic on
   stderr, distinct exit code 3, never a backtrace. *)
let guard_oom f =
  try f ()
  with Out_of_memory ->
    Printf.eprintf
      "giantsan-repro: out of memory (arena exhausted beyond graceful \
       degradation)\n";
    3

let chaos_cmd =
  let doc =
    "Run the deterministic fault-injection matrix: seeded faults across \
     four planes (shadow corruption, allocator pressure, execution \
     faults, corrupt inputs), each checked against its degradation \
     contract by a shadow-vs-oracle audit. Output is byte-identical for a \
     fixed $(b,--seed) across runs and across $(b,--jobs). Exits 0 when \
     the contract holds, 1 on any silent corruption."
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Fault-matrix seed; every knob in the schedule derives from it.")
  in
  let soak =
    Arg.(
      value & opt int 1
      & info [ "soak" ] ~docv:"ROUNDS"
          ~doc:
            "Repeat the matrix over $(docv) derived seeds and append \
             aggregate counters (soak mode).")
  in
  let oom_demo =
    Arg.(
      value & flag
      & info [ "oom-demo" ]
          ~doc:
            "Exhaust a tiny arena past graceful degradation and let the \
             resulting $(b,Out_of_memory) reach the top level (exit-code \
             demo: must exit 3 with a diagnostic, never a backtrace).")
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const (fun seed jobs soak oom_demo out ->
          guard_oom (fun () ->
              if oom_demo then begin
                let module Heap = Giantsan_memsim.Heap in
                let heap =
                  Heap.create
                    { Heap.arena_size = 2048; redzone = 16;
                      quarantine_budget = 0 }
                in
                ignore (Heap.malloc heap 4096);
                0
              end
              else begin
                let report, held =
                  Giantsan_chaos.Engine.run ~soak ~seed ~jobs ()
                in
                print_string report;
                write_out out report;
                if held then 0 else 1
              end))
      $ seed $ jobs_arg $ soak $ oom_demo $ out_file)

let spec_cmd =
  let doc =
    "Run the executable-specification refinement harness: the real \
     GiantSan runtime and the pure model in lockstep over seeded \
     operation streams, with full-state audits (shadow, arena bytes, \
     quarantine FIFO, counters) after every step. With $(b,--mutate), \
     plant seeded shadow-plane faults instead and demand every one is \
     caught by the audit. Output is byte-identical for a fixed \
     $(b,--seed). Exits 0 when every run is equivalent (and every mutant \
     killed), 1 otherwise."
  in
  let seed =
    Arg.(
      value & opt int 7
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Master seed; per-run seeds derive from it.")
  in
  let runs =
    Arg.(
      value & opt int 16
      & info [ "runs" ] ~docv:"N" ~doc:"Number of lockstep runs.")
  in
  let steps =
    Arg.(
      value & opt int 200
      & info [ "steps" ] ~docv:"N" ~doc:"Operations per lockstep run.")
  in
  let mutate =
    Arg.(
      value
      & opt (some string) None
      & info [ "mutate" ] ~docv:"WHICH"
          ~doc:
            "Mutation-kill mode: $(b,all) or one of $(b,bit-flip), \
             $(b,stale-free), $(b,overclaim), $(b,misfold). Each fault is \
             planted into the real shadow plane only; a surviving mutant \
             is a harness failure.")
  in
  Cmd.v (Cmd.info "spec" ~doc)
    Term.(
      const (fun seed runs steps mutate ->
          guard_oom (fun () ->
              let module Refine = Giantsan_spec.Refine in
              let module Heap = Giantsan_memsim.Heap in
              let rng = Giantsan_util.Rng.create seed in
              let budget0 =
                { Refine.default_config with Heap.quarantine_budget = 0 }
              in
              let config_of i =
                if i mod 2 = 0 then ("default", Refine.default_config)
                else ("budget0", budget0)
              in
              match mutate with
              | None ->
                Printf.printf "spec: lockstep seed=%d runs=%d steps=%d\n" seed
                  runs steps;
                let bad = ref 0 in
                for i = 0 to runs - 1 do
                  let run_seed = Giantsan_util.Rng.int rng 1_000_000 in
                  let cname, config = config_of i in
                  (match Refine.run ~config ~seed:run_seed ~steps () with
                  | Refine.Equivalent e ->
                    Printf.printf
                      "run %02d seed=%06d config=%-7s equivalent (%d \
                       reports, %d allocs, %d frees)\n"
                      i run_seed cname e.reports e.allocs e.frees
                  | Refine.Diverged d ->
                    incr bad;
                    Printf.printf "run %02d seed=%06d config=%-7s DIVERGED %s\n"
                      i run_seed cname
                      (Refine.divergence_to_string d));
                  (* the fuzz-mode snapshot/restore audit rides every
                     lockstep run: restore must land byte-equal to the
                     from-scratch rebuild the model embodies *)
                  match Refine.check_restore ~config ~seed:run_seed ~steps () with
                  | Refine.Equivalent _ ->
                    Printf.printf
                      "run %02d seed=%06d config=%-7s restore-audit ok\n" i
                      run_seed cname
                  | Refine.Diverged d ->
                    incr bad;
                    Printf.printf
                      "run %02d seed=%06d config=%-7s RESTORE DIVERGED %s\n" i
                      run_seed cname
                      (Refine.divergence_to_string d)
                done;
                Printf.printf "spec: %d/%d runs equivalent\n" (runs - !bad) runs;
                if !bad = 0 then 0 else 1
              | Some which ->
                let mutations =
                  match which with
                  | "all" -> Refine.all_mutations
                  | _ -> (
                    match
                      List.find_opt
                        (fun m ->
                          (* match on the family prefix of the display name *)
                          let n = Refine.mutation_name m in
                          String.length n >= String.length which
                          && String.sub n 0 (String.length which) = which)
                        Refine.all_mutations
                    with
                    | Some m -> [ m ]
                    | None ->
                      Printf.eprintf "spec: unknown mutation %S\n" which;
                      Stdlib.exit 2)
                in
                Printf.printf "spec: mutation kills seed=%d runs=%d steps=%d\n"
                  seed runs steps;
                let survived = ref 0 and total = ref 0 in
                for i = 0 to runs - 1 do
                  let run_seed = Giantsan_util.Rng.int rng 1_000_000 in
                  let cname, config = config_of i in
                  List.iter
                    (fun m ->
                      incr total;
                      let killed, detail =
                        Refine.check_mutation ~config ~seed:run_seed ~steps m
                      in
                      if not killed then incr survived;
                      Printf.printf
                        "run %02d seed=%06d config=%-7s %-14s %s (%s)\n" i
                        run_seed cname (Refine.mutation_name m)
                        (if killed then "killed" else "SURVIVED")
                        detail)
                    mutations
                done;
                Printf.printf "spec: %d/%d mutants killed\n"
                  (!total - !survived) !total;
                if !survived = 0 then 0 else 1))
      $ seed $ runs $ steps $ mutate)

let serve_cmd =
  let module Service = Giantsan_service in
  let doc =
    "Run the long-lived multi-tenant sanitizer service: $(b,--tenants) \
     isolated arenas served round-robin over the domain pool, each with a \
     seeded open-ended request stream, an HDR latency histogram, \
     sliding-window rate counters, a bounded flight recorder, and an SLO \
     watchdog that escalates breach streaks breached/degraded/quarantined \
     without perturbing other tenants. Under the (default) virtual clock \
     stdout is byte-identical across runs and across $(b,--jobs). Exits 0 \
     when every tenant ends healthy, 1 on any SLO breach, audit fault or \
     quarantine."
  in
  let tenants =
    Arg.(
      value & opt int 4
      & info [ "tenants" ] ~docv:"N" ~doc:"Number of isolated tenants.")
  in
  let duration =
    Arg.(
      value & opt int 64
      & info [ "duration" ] ~docv:"TICKS" ~doc:"Run length, in service ticks.")
  in
  let seed =
    Arg.(
      value & opt int 7
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Master seed; every tenant's streams derive from it.")
  in
  let quantum =
    Arg.(
      value & opt int 32
      & info [ "quantum" ] ~docv:"OPS"
          ~doc:"Max requests served per tenant per tick (halved while \
                degraded).")
  in
  let slo =
    Arg.(
      value & opt string "none"
      & info [ "slo" ] ~docv:"SPEC"
          ~doc:
            "SLO thresholds as comma-separated key=value clauses: $(b,p999) \
             (ns ceiling), $(b,err) (error-rate ceiling), $(b,ops) \
             (throughput floor); e.g. $(b,p999=20000,err=0.05,ops=50000).")
  in
  let policy =
    Arg.(
      value
      & opt (some string) None
      & info [ "policy" ] ~docv:"SPEC"
          ~doc:
            "PartiSan-style backend policy as comma-separated key=value \
             clauses: $(b,budget) (mean overhead ceiling, native=1.0), \
             $(b,prefer) (detection-class weights, \
             $(b,cls:w) pairs joined by $(b,;) over oob/uaf/uaf-realloc/\
             double-free), $(b,fallback) (backend when nothing fits); e.g. \
             $(b,budget=1.5,prefer=oob:3;uaf:2,fallback=native). Tenants \
             get backends from the budget, and a tenant that would be \
             quarantined is first downshifted to a cheaper backend. A \
             malformed spec exits 2.")
  in
  let recorder =
    Arg.(
      value & opt int 64
      & info [ "recorder" ] ~docv:"M"
          ~doc:"Flight-recorder depth: the last $(docv) events per tenant.")
  in
  let real_clock =
    Arg.(
      value & flag
      & info [ "real-clock" ]
          ~doc:
            "Measure wall-clock latencies instead of the deterministic \
             virtual clock (output no longer byte-reproducible).")
  in
  let chaos_tenant =
    Arg.(
      value
      & opt (some int) None
      & info [ "chaos-tenant" ] ~docv:"T"
          ~doc:
            "Plant a seeded shadow-plane fault into tenant $(docv) mid-run; \
             the audit must catch it in exactly that tenant's flight \
             recorder.")
  in
  let chaos_tick =
    Arg.(
      value
      & opt (some int) None
      & info [ "chaos-tick" ] ~docv:"TICK"
          ~doc:"Tick the chaos fault lands at (default: half the duration).")
  in
  let report_every =
    Arg.(
      value & opt int 16
      & info [ "report-every" ] ~docv:"TICKS"
          ~doc:"Live summary cadence (0 disables).")
  in
  let upshift_after =
    Arg.(
      value & opt int 4
      & info [ "upshift-after" ] ~docv:"WINDOWS"
          ~doc:
            "With $(b,--policy): repartition a downshifted tenant back \
             toward its original backend after $(docv) consecutive clean \
             SLO windows (0 disables the return direction of the ladder).")
  in
  let bench_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "bench-out" ] ~docv:"FILE"
          ~doc:
            "Write a bench-JSON document whose $(b,service) section carries \
             the run's latency/throughput rows to $(docv).")
  in
  let dump_ndjson =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump-ndjson" ] ~docv:"FILE"
          ~doc:
            "Write every tenant's final flight-recorder contents to $(docv) \
             as replayable NDJSON.")
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const (fun tenants duration seed quantum slo policy recorder real_clock
                 chaos_tenant chaos_tick report_every upshift_after bench_out
                 dump_ndjson jobs ->
          guard_oom (fun () ->
              match Service.Slo.parse slo with
              | Error e ->
                Printf.eprintf "serve: bad --slo: %s\n" e;
                2
              | Ok slo ->
              match
                match policy with
                | None -> Ok None
                | Some s -> Result.map Option.some (Giantsan_policy.Policy.parse s)
              with
              | Error e ->
                Printf.eprintf "serve: bad --policy: %s\n" e;
                2
              | Ok policy ->
                let chaos =
                  Option.map
                    (fun t ->
                      let at =
                        match chaos_tick with
                        | Some k -> k
                        | None -> duration / 2
                      in
                      ( t,
                        Giantsan_chaos.Fault.Stale_free { pick = 1 + seed },
                        at ))
                    chaos_tenant
                in
                let tenant_cfg =
                  {
                    Service.Tenant.default_config with
                    virtual_clock = not real_clock;
                    recorder_cap = recorder;
                  }
                in
                let cfg =
                  {
                    Service.Loop.default_config with
                    tenants;
                    seed;
                    ticks = duration;
                    quantum;
                    jobs;
                    slo;
                    policy;
                    tenant_cfg;
                    chaos;
                    report_every;
                    upshift_after;
                  }
                in
                (* jobs only to stderr: stdout must diff clean across --jobs *)
                Printf.eprintf "serve: %d tenant(s) on %d domain(s)\n%!" tenants
                  jobs;
                Printf.printf
                  "serve: tenants=%d ticks=%d quantum=%d seed=%d slo=%s \
                   clock=%s\n"
                  tenants duration quantum seed (Service.Slo.to_string slo)
                  (if real_clock then "monotonic" else "virtual");
                (match policy with
                | None -> ()
                | Some spec ->
                  let module Policy = Giantsan_policy.Policy in
                  let module Backend = Giantsan_policy.Backend in
                  Printf.printf "policy: %s\n" (Policy.to_string spec);
                  List.iteri
                    (fun i b ->
                      Printf.printf "policy: tenant-%d -> %s\n" i
                        (Backend.name b))
                    (Policy.assign spec ~tenants));
                let o = Service.Loop.run ~progress:print_endline cfg in
                print_string (Service.Loop.render_summary o);
                (match o.Service.Loop.o_chaos with
                | Some (t, d) ->
                  Printf.printf "chaos: planted %s into tenant-%d\n" d t
                | None -> ());
                List.iter
                  (fun (t, d) -> Printf.printf "fault: tenant-%d %s\n" t d)
                  o.Service.Loop.o_faults;
                List.iter
                  (fun (t, b) ->
                    Printf.printf "downshift: tenant-%d -> %s\n" t b)
                  o.Service.Loop.o_downshifts;
                List.iter
                  (fun (t, b) ->
                    Printf.printf "upshift: tenant-%d -> %s\n" t b)
                  o.Service.Loop.o_upshifts;
                List.iter
                  (fun (t, lines) ->
                    Printf.printf
                      "flight recorder dumped for tenant-%d (%d events)\n" t
                      (List.length lines))
                  o.Service.Loop.o_dumps;
                Printf.printf
                  (if Service.Loop.healthy o then
                     format_of_string "service healthy: %d ops, 0 breaches\n"
                   else
                     format_of_string
                       "service DEGRADED: %d ops (see breaches/faults above)\n")
                  o.Service.Loop.o_ops;
                (match dump_ndjson with
                | None -> ()
                | Some path ->
                  let oc = open_out path in
                  List.iter
                    (fun (_, lines) ->
                      List.iter
                        (fun l ->
                          output_string oc l;
                          output_char oc '\n')
                        lines)
                    o.Service.Loop.o_recorders;
                  close_out oc;
                  Printf.eprintf "flight recorders written to %s\n" path);
                (match bench_out with
                | None -> ()
                | Some path ->
                  Giantsan_telemetry.Export.write_file path
                    (Giantsan_telemetry.Export.bench_json ~profiles:[]
                       ~service:(Service.Loop.service_rows o)
                       ());
                  Printf.eprintf "service bench rows written to %s\n" path);
                if Service.Loop.healthy o then 0 else 1))
      $ tenants $ duration $ seed $ quantum $ slo $ policy $ recorder
      $ real_clock $ chaos_tenant $ chaos_tick $ report_every $ upshift_after
      $ bench_out $ dump_ndjson $ jobs_arg)

let validate_cmd =
  let doc = "Re-validate the ground-truth labels of every generated corpus." in
  Cmd.v (Cmd.info "validate" ~doc)
    Term.(
      const (fun out ->
          let body = Giantsan_report.Corpus_tools.validate () in
          print_string body;
          write_out out body;
          0)
      $ out_file)

let () =
  let info =
    Cmd.info "giantsan-repro" ~version:"1.0.0"
      ~doc:
        "Reproduction of 'GiantSan: Efficient Memory Sanitization with \
         Segment Folding' (ASPLOS 2024)"
  in
  let cmds =
    all_cmd :: extras_cmd :: fuzz_cmd :: fuzz_matrix_cmd :: replay_cmd
    :: trace_cmd :: check_ndjson_cmd :: gate_cmd :: sweep_cmd
    :: chaos_cmd :: spec_cmd :: serve_cmd :: validate_cmd
    :: List.map
         (fun id -> experiment_cmd id id)
         (Giantsan_report.Experiments.all_ids
         @ Giantsan_report.Experiments.extra_ids)
  in
  (* Exit-code conventions (documented in README):
     0 success; 1 findings / contract violation; 2 unreadable or corrupt
     input; 3 out of memory; 124/125 cmdliner CLI misuse / internal error.
     Allocator exhaustion past graceful degradation must end in a
     diagnostic and a distinct code, never an uncaught exception trace. *)
  let code =
    try Cmd.eval' (Cmd.group info cmds)
    with Out_of_memory ->
      Printf.eprintf
        "giantsan-repro: out of memory (arena exhausted beyond graceful \
         degradation)\n";
      3
  in
  exit code
