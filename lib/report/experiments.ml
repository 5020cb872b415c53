module Table = Giantsan_util.Table
module Stats = Giantsan_util.Stats
module Ast = Giantsan_ir.Ast
module B = Giantsan_ir.Builder
module Instrument = Giantsan_analysis.Instrument
module Interp = Giantsan_analysis.Interp
module Counters = Giantsan_sanitizer.Counters
module San = Giantsan_sanitizer.Sanitizer
module Specgen = Giantsan_workload.Specgen
module Profiles = Giantsan_workload.Profiles
module Runner = Giantsan_workload.Runner
module Traversal = Giantsan_workload.Traversal
module Scenario = Giantsan_bugs.Scenario
module Juliet = Giantsan_bugs.Juliet
module Cves = Giantsan_bugs.Cves
module Magma = Giantsan_bugs.Magma
module Harness = Giantsan_bugs.Harness
module Pool = Giantsan_parallel.Pool

type outcome = { o_id : string; o_title : string; o_body : string }

let heading title =
  Printf.sprintf "%s\n%s\n" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

(* Executed-check delta between a setup-only program and setup+idiom. *)
let idiom_checks config ~mk_program =
  let run prog =
    let san = Runner.make_sanitizer config in
    let plan = Instrument.plan (Runner.instrument_mode config) prog in
    let out = Interp.run san plan prog in
    assert (out.Interp.reports = []);
    (Counters.total_checks san.San.counters, san.San.shadow_loads ())
  in
  let setup_checks, setup_loads = run (mk_program ~with_idiom:false) in
  let full_checks, full_loads = run (mk_program ~with_idiom:true) in
  (full_checks - setup_checks, full_loads - setup_loads)

let n_table1 = 100

let idiom_const ~with_idiom =
  let b = B.create () in
  B.program "const"
    ([ B.malloc "p" (B.i 512) ]
    @
    if with_idiom then
      [
        B.assign "s"
          B.(
            load b ~base:"p" ~index:(i 0) ~scale:4 ()
            + load b ~base:"p" ~index:(i 10) ~scale:4 ()
            + load b ~base:"p" ~index:(i 20) ~scale:4 ());
      ]
    else [])

let idiom_memset ~with_idiom =
  let b = B.create () in
  B.program "memset"
    ([ B.malloc "p" (B.i (4 * n_table1)) ]
    @
    if with_idiom then
      [
        B.memset b ~dst:"p" ~doff:(B.i 0) ~len:(B.i (4 * n_table1))
          ~value:(B.i 0);
      ]
    else [])

let idiom_loop ~with_idiom =
  let b = B.create () in
  B.program "loop"
    ([ B.malloc "p" (B.i (4 * n_table1)) ]
    @
    if with_idiom then
      [
        B.for_ b ~idx:"i" ~lo:(B.i 0) ~hi:(B.i n_table1)
          [ B.store b ~base:"p" ~index:(B.v "i") ~scale:4 ~value:(B.v "i") () ];
      ]
    else [])

let idiom_alias ~with_idiom =
  let b = B.create () in
  B.program "alias"
    ([
       B.malloc "p" (B.i (4 * n_table1));
       B.malloc "vec" (B.i (8 * n_table1));
       B.for_ b ~idx:"i" ~lo:(B.i 0) ~hi:(B.i n_table1)
         [
           B.store b ~base:"vec" ~index:(B.v "i") ~scale:8
             ~value:B.(v "i" % i n_table1)
             ();
         ];
     ]
    @
    if with_idiom then
      [
        B.store b ~base:"p" ~index:(B.i 0) ~scale:4 ~value:(B.i 10) ();
        B.for_ b ~idx:"i" ~lo:(B.i 0) ~hi:(B.i n_table1)
          [
            B.assign "t" (B.load b ~base:"vec" ~index:(B.v "i") ~scale:8 ());
            B.store b ~base:"p" ~index:(B.v "t") ~scale:4 ~value:(B.v "t") ();
          ];
      ]
    else [])

let table1 () =
  let idioms =
    [
      ("p[0] + p[10] + p[20]", "Constant Propagation", idiom_const);
      ("memset(p, 0, N)", "Predefined Semantics", idiom_memset);
      ("for i < N: p[i] = foo(i)", "Loop Bound Analysis", idiom_loop);
      ("p[0] = 10; for i: p[vec[i]] = ...", "Must-alias Analysis", idiom_alias);
    ]
  in
  let rows =
    [
      [ "Example"; "Analysis Method"; "GiantSan checks"; "GiantSan loads";
        "ASan checks"; "ASan loads" ];
    ]
    @ List.map
        (fun (label, method_, mk_program) ->
          let g_checks, g_loads = idiom_checks Runner.Giantsan ~mk_program in
          let a_checks, a_loads = idiom_checks Runner.Asan ~mk_program in
          [
            label; method_;
            string_of_int g_checks; string_of_int g_loads;
            string_of_int a_checks; string_of_int a_loads;
          ])
        idioms
  in
  let body =
    heading "Table 1: operation-level vs instruction-level protection"
    ^ Printf.sprintf "(N = %d; counts are executed checks / metadata loads)\n\n"
        n_table1
    ^ Table.render rows
    ^ "\nPaper's shape: 1 operation-level check replaces 3 / Theta(N) / N / \
       N+1 instruction-level checks.\n"
  in
  { o_id = "table1"; o_title = "Table 1"; o_body = body }

(* ------------------------------------------------------------------ *)
(* Table 2                                                             *)
(* ------------------------------------------------------------------ *)

let ratio_cell native_ns r =
  match r.Runner.r_status with
  | Runner.Compile_error -> "CE"
  | Runner.Runtime_error -> "RE"
  | Runner.Completed ->
    Table.fpct (Runner.overhead_pct ~native:native_ns ~sanitized:r.Runner.r_sim_ns)

let table2 ?(quick = false) ?(jobs = 1) () =
  let profiles =
    if quick then
      List.filteri (fun i _ -> i mod 4 = 0) Profiles.all
    else Profiles.all
  in
  let configs = Runner.all_configs in
  let header =
    [ "Programs"; "Native(s)" ]
    @ List.concat_map
        (fun c ->
          match c with
          | Runner.Native -> []
          | c -> [ Runner.config_name c ^ " R" ])
        configs
  in
  let ratios : (Runner.config, float list ref) Hashtbl.t = Hashtbl.create 8 in
  let note_ratio config r =
    let cell =
      match Hashtbl.find_opt ratios config with
      | Some l -> l
      | None ->
        let l = ref [] in
        Hashtbl.add ratios config l;
        l
    in
    cell := r :: !cell
  in
  (* profile rows are independent shards (each run builds its own heap and
     shadow); the ratio bookkeeping below stays serial and in canonical
     profile order, so the rendered table is identical for every [jobs] *)
  let profile_results =
    Pool.map ~jobs (fun p -> (p, Runner.run_profile ~configs p)) profiles
  in
  let rows =
    List.map
      (fun (p, results) ->
        let native =
          List.find (fun r -> r.Runner.r_config = Runner.Native) results
        in
        let native_ns = native.Runner.r_sim_ns in
        let cells =
          List.filter_map
            (fun r ->
              if r.Runner.r_config = Runner.Native then None
              else begin
                (if r.Runner.r_status = Runner.Completed then
                   note_ratio r.Runner.r_config
                     (Runner.overhead_pct ~native:native_ns
                        ~sanitized:r.Runner.r_sim_ns));
                Some (ratio_cell native_ns r)
              end)
            results
        in
        [ p.Specgen.p_name;
          Printf.sprintf "%.0f" (Profiles.native_seconds p.Specgen.p_name) ]
        @ cells)
      profile_results
  in
  let geo_row =
    [ "Geometric Means"; "" ]
    @ List.filter_map
        (fun c ->
          if c = Runner.Native then None
          else
            match Hashtbl.find_opt ratios c with
            | Some { contents = l } when l <> [] ->
              Some (Table.fpct (Stats.geomean l))
            | _ -> Some "-")
        configs
  in
  let body =
    heading "Table 2: runtime overhead (simulated from event counts)"
    ^ "Native(s) shows the paper's wall-clock anchor; R columns are this\n\
       reproduction's simulated overhead ratios (cost model over measured\n\
       event counts — see DESIGN.md). CE/RE mirror LFP's build failures.\n\n"
    ^ Table.render (header :: (rows @ [ geo_row ]))
    ^ "\nPaper geometric means: GiantSan 146.04%, ASan 212.58%, ASan-- \
       174.89%, LFP 161.76%,\nCacheOnly 175.63%, EliminationOnly 170.24%.\n"
  in
  { o_id = "table2"; o_title = "Table 2"; o_body = body }

(* ------------------------------------------------------------------ *)
(* Figure 10                                                           *)
(* ------------------------------------------------------------------ *)

let fig10 ?(quick = false) ?(jobs = 1) () =
  let profiles =
    if quick then List.filteri (fun i _ -> i mod 4 = 0) Profiles.all
    else Profiles.all
  in
  let results =
    Pool.map ~jobs (fun p -> (p, Runner.run_one p Runner.Giantsan)) profiles
  in
  let rows =
    List.map
      (fun (p, r) ->
        let s = Option.get r.Runner.r_stats in
        let total =
          s.Interp.x_plain + s.Interp.x_cached + s.Interp.x_eliminated
        in
        let pct n = 100.0 *. float_of_int n /. float_of_int (max 1 total) in
        let fast = s.Interp.x_plain_fast in
        let full = s.Interp.x_plain - fast in
        [
          p.Specgen.p_name;
          Table.fpct (pct s.Interp.x_eliminated);
          Table.fpct (pct s.Interp.x_cached);
          Table.fpct (pct fast);
          Table.fpct (pct full);
        ])
      results
  in
  let avg col =
    Stats.mean
      (List.map
         (fun row ->
           let cell = List.nth row col in
           float_of_string (String.sub cell 0 (String.length cell - 1)))
         rows)
  in
  let body =
    heading "Figure 10: proportion of accesses per optimization"
    ^ Table.render
        ([ [ "Project"; "Eliminated"; "Cached"; "FastOnly"; "FullCheck" ] ]
        @ rows
        @ [
            [
              "Mean";
              Table.fpct (avg 1);
              Table.fpct (avg 2);
              Table.fpct (avg 3);
              Table.fpct (avg 4);
            ];
          ])
    ^ "\nPaper: on average 52.56% of checks optimized (30.76% eliminated + \
       21.80% cached);\n49.22% of the remainder need only the fast check.\n"
  in
  { o_id = "fig10"; o_title = "Figure 10"; o_body = body }

(* ------------------------------------------------------------------ *)
(* Table 3                                                             *)
(* ------------------------------------------------------------------ *)

let table3 () =
  let rows =
    List.map
      (fun cwe ->
        let buggy = Juliet.buggy_cases cwe in
        let clean = Juliet.clean_cases cwe in
        let errors = Harness.validate_corpus (buggy @ clean) in
        assert (errors = []);
        let fps =
          List.map (fun t -> Harness.false_positives t clean) Harness.all_tools
        in
        assert (List.for_all (fun n -> n = 0) fps);
        (Printf.sprintf "%d: %s" cwe (Juliet.cwe_name cwe)
        :: List.map
             (fun t -> string_of_int (Harness.count_detected t buggy))
             Harness.all_tools)
        @ [ string_of_int (Juliet.total cwe) ])
      Juliet.cwe_ids
  in
  let col_sum i =
    List.fold_left (fun acc row -> acc + int_of_string (List.nth row i)) 0 rows
  in
  let total_row =
    "Total"
    :: List.init (List.length Harness.all_tools + 1) (fun i ->
           string_of_int (col_sum (i + 1)))
  in
  let body =
    heading "Table 3: detection on the Juliet-shaped corpus"
    ^ "All non-buggy twins pass under every tool (no false positives), as \
       in the paper.\n\n"
    ^ Table.render
        ((("CWE & Type" :: List.map Runner.config_name Harness.all_tools)
          @ [ "Total" ])
         :: rows
        @ [ total_row ])
    ^ "\nPaper totals: GiantSan/ASan/ASan-- 5063, LFP 2088, of 5075. PAC is \
       this repo's tagged-pointer extension, not a paper column.\n"
  in
  { o_id = "table3"; o_title = "Table 3"; o_body = body }

(* ------------------------------------------------------------------ *)
(* Table 4                                                             *)
(* ------------------------------------------------------------------ *)

let table4 () =
  let mark b = if b then "Y" else "-" in
  let rows =
    List.map
      (fun (c : Cves.t) ->
        [ c.Cves.cve_program; c.Cves.cve_id; c.Cves.cve_class ]
        @ List.map
            (fun t -> mark (Harness.detected t c.Cves.cve_scenario))
            Harness.all_tools)
      Cves.all
  in
  let body =
    heading "Table 4: CVE scenarios (Linux Flaw Project shapes)"
    ^ Table.render
        (([ "Program"; "CVE"; "Class" ]
         @ List.map Runner.config_name Harness.all_tools)
        :: rows)
    ^ "\nPaper: all tools detect everything except LFP on CVE-2017-12858, \
       CVE-2017-9165 and CVE-2017-14409.\n"
  in
  { o_id = "table4"; o_title = "Table 4"; o_body = body }

(* ------------------------------------------------------------------ *)
(* Table 5                                                             *)
(* ------------------------------------------------------------------ *)

let table5_columns =
  Runner.[ (Asanmm, 16); (Asanmm, 512); (Asan, 16); (Asan, 512); (Giantsan, 16) ]

let table5 ?(scale = 1) () =
  let scaled p =
    if scale = 1 then p
    else
      {
        p with
        Magma.mg_short = p.Magma.mg_short / scale;
        mg_mid = p.Magma.mg_mid / scale;
        mg_far = p.Magma.mg_far / scale;
        mg_latent = p.Magma.mg_latent / scale;
      }
  in
  let rows =
    List.map
      (fun p ->
        let p = scaled p in
        let cases = Magma.cases p in
        (Printf.sprintf "%s (%s)" p.Magma.mg_name p.Magma.mg_loc
        :: List.map
             (fun (tool, redzone) ->
               string_of_int (Harness.count_detected ~redzone tool cases))
             table5_columns)
        @ [ string_of_int (Magma.total p) ])
      Magma.projects
  in
  let body =
    heading "Table 5: Magma-shaped redzone study"
    ^ (if scale <> 1 then
         Printf.sprintf "(populations scaled down by %d)\n\n" scale
       else "\n")
    ^ Table.render
        ((("Project"
           :: List.map
                (fun (tool, rz) ->
                  Printf.sprintf "%s(rz%d)" (Runner.config_name tool) rz)
                table5_columns)
         @ [ "Total" ])
        :: rows)
    ^ "\nPaper (php row): 1556 / 1962 / 1556 / 1962 / 2019 of 3072 — the \
       anchor closes the redzone-bypass gap.\n"
  in
  { o_id = "table5"; o_title = "Table 5"; o_body = body }

(* ------------------------------------------------------------------ *)
(* Figure 11                                                           *)
(* ------------------------------------------------------------------ *)

let time_ms f =
  let t0 = Sys.time () in
  f ();
  (Sys.time () -. t0) *. 1000.0

let fig11 ?(sizes_kb = [ 1; 2; 4; 8; 16 ]) ?(reps = 300) () =
  let tools = Runner.[ Native; Giantsan; Asan ] in
  let patterns =
    [
      ("Forward", fun san ~base ~size -> ignore (Traversal.forward san ~base ~size));
      ("Random",
       fun san ~base ~size -> ignore (Traversal.random san ~seed:7 ~base ~size));
      ("Reverse", fun san ~base ~size -> ignore (Traversal.reverse san ~base ~size));
    ]
  in
  let sections =
    List.map
      (fun (pat_name, kernel) ->
        let rows =
          List.map
            (fun kb ->
              let size = kb * 1024 in
              let cells =
                List.map
                  (fun tool ->
                    let san = Runner.make_sanitizer tool in
                    let base = Traversal.prepare san ~size in
                    let ms =
                      time_ms (fun () ->
                          for _ = 1 to reps do
                            kernel san ~base ~size
                          done)
                    in
                    Printf.sprintf "%.2f" ms)
                  tools
              in
              (string_of_int kb :: cells))
            sizes_kb
        in
        heading (Printf.sprintf "Figure 11 (%s traversal)" pat_name)
        ^ Table.render
            (("KB" :: List.map (fun t -> Runner.config_name t ^ " ms") tools)
            :: rows))
      patterns
  in
  (* the §5.4 mitigation, timed: one up-front region check, then a
     metadata-free descending scan *)
  let mitigation_rows =
    List.map
      (fun kb ->
        let size = kb * 1024 in
        let cells =
          List.map
            (fun kernel ->
              let san = Runner.make_sanitizer Runner.Giantsan in
              let base = Traversal.prepare san ~size in
              Printf.sprintf "%.2f"
                (time_ms (fun () ->
                     for _ = 1 to reps do
                       ignore (kernel san ~base ~size)
                     done)))
            [
              (fun san ~base ~size -> Traversal.reverse san ~base ~size);
              (fun san ~base ~size -> Traversal.reverse_prescan san ~base ~size);
            ]
        in
        (string_of_int kb :: cells))
      sizes_kb
  in
  let mitigation =
    heading "Figure 11 addendum: the §5.4 prescan mitigation"
    ^ Table.render
        ([ "KB"; "GiantSan reverse ms"; "GiantSan prescan ms" ]
        :: mitigation_rows)
  in
  let body =
    String.concat "\n" (sections @ [ mitigation ])
    ^ Printf.sprintf
        "\n(%d repetitions per point; wall clock of the OCaml kernels)\n\
         Paper: GiantSan 1.07x faster than ASan forward, 1.48x faster \
         random, 1.39x SLOWER reverse.\n"
        reps
  in
  { o_id = "fig11"; o_title = "Figure 11"; o_body = body }

(* ------------------------------------------------------------------ *)
(* Extension experiments (not in the paper)                            *)
(* ------------------------------------------------------------------ *)

let ablation_encoding () =
  let module SC = Giantsan_core.State_code in
  let module RC = Giantsan_core.Region_check in
  let module Folding = Giantsan_core.Folding in
  let module Linear = Giantsan_core.Linear_encoding in
  let module AE = Giantsan_asan.Asan_encoding in
  let module Shadow_mem = Giantsan_shadow.Shadow_mem in
  let sizes = [ 64; 512; 4096; 32768; 262144 ] in
  let segments = 40000 in
  let rows =
    List.map
      (fun size ->
        let segs = size / 8 in
        (* ASan encoding *)
        let m_asan = Shadow_mem.create ~segments ~fill:AE.unallocated in
        Shadow_mem.fill_range m_asan ~lo:0 ~hi:segs AE.good;
        let asan_loads =
          Shadow_mem.reset_counters m_asan;
          assert (Giantsan_asan.Asan_runtime.region_is_safe m_asan ~lo:0 ~hi:size = None);
          Shadow_mem.loads m_asan
        in
        (* capped run-length encoding *)
        let m_lin = Shadow_mem.create ~segments ~fill:SC.unallocated in
        Linear.poison_good_run m_lin ~first_seg:0 ~count:segs;
        let lin_loads =
          Shadow_mem.reset_counters m_lin;
          assert (Linear.check m_lin ~l:0 ~r:size);
          Shadow_mem.loads m_lin
        in
        (* binary folding *)
        let m_fold = Shadow_mem.create ~segments ~fill:SC.unallocated in
        Folding.poison_good_run m_fold ~first_seg:0 ~count:segs;
        let fold_loads =
          Shadow_mem.reset_counters m_fold;
          assert (RC.is_safe (RC.check m_fold ~l:0 ~r:size));
          Shadow_mem.loads m_fold
        in
        [
          string_of_int size;
          string_of_int asan_loads;
          string_of_int lin_loads;
          string_of_int fold_loads;
        ])
      sizes
  in
  let body =
    heading "Ablation (extension): shadow-encoding design space"
    ^ "Metadata loads to safeguard one region of the given size.\n\n"
    ^ Table.render
        ([ "Region bytes"; "ASan (plain)"; "Run-length (cap 63)"; "Binary folding" ]
        :: rows)
    ^ "\nThe run-length cap (6 bits) buys a 63x improvement but stays \
       linear;\nfolding spends the same 6 bits on a logarithm and stays \
       constant.\n"
  in
  { o_id = "ablation-encoding"; o_title = "Encoding ablation"; o_body = body }

let sweep_redzone () =
  (* jump-distance population: 24..1984 bytes past a 32-byte object, with a
     4 KiB landing pad right after it *)
  let distances = List.init 196 (fun i -> 32 + (i * 10)) in
  let case dist =
    {
      Scenario.sc_id = Printf.sprintf "sweep_rz_%d" dist;
      sc_cwe = 0;
      sc_buggy = true;
      sc_steps =
        [
          Scenario.Alloc { slot = 0; size = 32; kind = Giantsan_memsim.Memobj.Heap };
          Scenario.Alloc { slot = 1; size = 4096; kind = Giantsan_memsim.Memobj.Heap };
          Scenario.Access { slot = 0; off = dist; width = 1 };
        ];
    }
  in
  let cases = List.map case distances in
  let total = List.length cases in
  let rows =
    List.map
      (fun rz ->
        [
          string_of_int rz;
          Printf.sprintf "%d/%d"
            (Harness.count_detected ~redzone:rz Runner.Asan cases)
            total;
          Printf.sprintf "%d/%d"
            (Harness.count_detected ~redzone:rz Runner.Giantsan cases)
            total;
        ])
      [ 16; 64; 128; 256; 512; 1024 ]
  in
  let body =
    heading "Sweep (extension): redzone size vs long-jump detection"
    ^ Printf.sprintf
        "%d overflows at distances 32..%d bytes past a 32-byte object.\n\n"
        total
        (List.fold_left max 0 distances)
    ^ Table.render ([ "redzone"; "ASan"; "GiantSan (anchored)" ] :: rows)
    ^ "\nASan's detection is bounded by the redzone it pays memory for;\n\
       the anchor makes the trade-off disappear (§4.4.1).\n"
  in
  { o_id = "sweep-redzone"; o_title = "Redzone sweep"; o_body = body }

let sweep_quarantine () =
  (* free the victim; age it through the quarantine with differently-sized
     alloc/free churn; grab a same-sized block (which reuses the victim's
     once it has been recycled); then dereference the stale pointer. While
     the victim is quarantined the access hits freed shadow (detected);
     once recycled and re-occupied, the stale pointer is indistinguishable
     from a valid one (the §5.4 bypass). *)
  let case churn =
    {
      Scenario.sc_id = Printf.sprintf "sweep_q_%d" churn;
      sc_cwe = 416;
      sc_buggy = true;
      sc_steps =
        [
          Scenario.Alloc { slot = 0; size = 64; kind = Giantsan_memsim.Memobj.Heap };
          Scenario.Free_slot 0;
        ]
        @ List.concat
            (List.init churn (fun k ->
                 [
                   Scenario.Alloc
                     { slot = 1 + k; size = 128; kind = Giantsan_memsim.Memobj.Heap };
                   Scenario.Free_slot (1 + k);
                 ]))
        @ [
            Scenario.Alloc
              { slot = 99; size = 64; kind = Giantsan_memsim.Memobj.Heap };
            Scenario.Access { slot = 0; off = 8; width = 8 };
          ];
    }
  in
  let cases = List.map case (List.init 64 (fun i -> i)) in
  let total = List.length cases in
  let rows =
    List.map
      (fun budget ->
        [
          string_of_int budget;
          Printf.sprintf "%d/%d"
            (Harness.count_detected ~quarantine:budget Runner.Giantsan cases)
            total;
        ])
      [ 0; 512; 1024; 2048; 4096; 8192 ]
  in
  let body =
    heading "Sweep (extension): quarantine budget vs use-after-free detection"
    ^ Printf.sprintf
        "%d stale dereferences, each aged by 0..%d intervening 128-byte \
         alloc/free churn pairs before the block is re-occupied.\n\n"
        total (total - 1)
    ^ Table.render ([ "quarantine bytes"; "GiantSan detections" ] :: rows)
    ^ "\nA bigger quarantine keeps freed blocks poisoned longer; the bypass\n\
       window (§5.4) is exactly the population the budget ages out.\n"
  in
  { o_id = "sweep-quarantine"; o_title = "Quarantine sweep"; o_body = body }

let compat () =
  let module Softbound = Giantsan_bugs.Softbound in
  let module Difftest = Giantsan_bugs.Difftest in
  (* overflow scenarios whose pointer either keeps its tag or round-trips
     through an integer cast (laundered) before the bad access *)
  let n = 200 in
  let scenarios =
    List.init n (fun seed -> Difftest.gen_buggy ~seed Difftest.V_overflow)
  in
  let count f = List.length (List.filter f scenarios) in
  let victim_slots sc =
    List.filter_map
      (fun s ->
        match s with Scenario.Alloc { slot; _ } -> Some slot | _ -> None)
      sc.Scenario.sc_steps
  in
  let rows =
    [
      [
        "pointer kept its tag";
        string_of_int
          (count (fun sc -> Softbound.run_with_laundering ~launder_slots:[] sc));
        string_of_int (count (Harness.detected Runner.Giantsan));
        string_of_int n;
      ];
      [
        "pointer laundered (int cast)";
        string_of_int
          (count (fun sc ->
               Softbound.run_with_laundering ~launder_slots:(victim_slots sc) sc));
        string_of_int (count (Harness.detected Runner.Giantsan));
        string_of_int n;
      ];
    ]
  in
  let body =
    heading "Compatibility (extension): pointer-based vs location-based"
    ^ "The §2.1 motivation, measured: a SoftBound-flavoured pointer-based\n\
       checker on seeded overflows, with and without pointer-to-integer\n\
       laundering of the victim pointer.\n\n"
    ^ Table.render
        ([ "flow"; "SoftBound-like"; "GiantSan"; "total" ] :: rows)
    ^ "\nTag propagation failure silently disables the pointer-based tool;\n\
       location-based metadata lives at the address and survives any cast.\n"
  in
  { o_id = "compat"; o_title = "Compatibility study"; o_body = body }

(* ------------------------------------------------------------------ *)

let all_ids = [ "table1"; "table2"; "fig10"; "table3"; "table4"; "table5"; "fig11" ]

let extra_ids =
  [ "ablation-encoding"; "sweep-redzone"; "sweep-quarantine"; "compat" ]

let run ?(quick = false) ?(jobs = 1) id =
  (* every experiment is a telemetry span: wall-clock + allocation stats
     land in the span log (and in summary.json under --telemetry) *)
  Giantsan_telemetry.Span.with_span ("experiment:" ^ id) (fun () ->
      match id with
      | "table1" -> table1 ()
      | "table2" -> table2 ~quick ~jobs ()
      | "fig10" -> fig10 ~quick ~jobs ()
      | "table3" -> table3 ()
      | "table4" -> table4 ()
      | "table5" -> table5 ~scale:(if quick then 20 else 1) ()
      | "fig11" ->
        if quick then fig11 ~sizes_kb:[ 1; 4 ] ~reps:50 () else fig11 ()
      | "ablation-encoding" -> ablation_encoding ()
      | "sweep-redzone" -> sweep_redzone ()
      | "sweep-quarantine" -> sweep_quarantine ()
      | "compat" -> compat ()
      | other -> invalid_arg ("Experiments.run: unknown experiment " ^ other))

let run_all ?quick ?jobs () = List.map (fun id -> run ?quick ?jobs id) all_ids
