(* End-to-end: programs run through plans and sanitizers. *)

module Ast = Giantsan_ir.Ast
module B = Giantsan_ir.Builder
module Plan = Giantsan_analysis.Plan
module Instrument = Giantsan_analysis.Instrument
module Interp = Giantsan_analysis.Interp
module Counters = Giantsan_sanitizer.Counters
module San = Giantsan_sanitizer.Sanitizer
module Report = Giantsan_sanitizer.Report

let run_with mode make_san prog =
  let san = make_san () in
  let plan = Instrument.plan mode prog in
  (san, Interp.run san plan prog)

(* sum the first 100 integers through memory *)
let sum_program () =
  let b = B.create () in
  B.program "sum"
    [
      B.malloc "p" (B.i 800);
      B.for_ b ~idx:"i" ~lo:(B.i 0) ~hi:(B.i 100)
        [ B.store b ~base:"p" ~index:(B.v "i") ~scale:8 ~value:(B.v "i") () ];
      B.assign "acc" (B.i 0);
      B.for_ b ~idx:"i" ~lo:(B.i 0) ~hi:(B.i 100)
        [
          B.assign "acc"
            B.(v "acc" + load b ~base:"p" ~index:(v "i") ~scale:8 ());
        ];
      B.free (B.v "p");
    ]

let test_semantics_all_modes () =
  List.iter
    (fun (mode, make_san) ->
      let _, out = run_with mode make_san (sum_program ()) in
      Alcotest.(check int)
        (Instrument.mode_name mode ^ " computes the same sum")
        4950 (Interp.var out "acc");
      Alcotest.(check (list string)) "no reports" []
        (List.map Report.to_string out.Interp.reports))
    [
      (Instrument.Native, Helpers.native ?config:None);
      (Instrument.Asan, Helpers.asan ?config:None);
      (Instrument.Asanmm, fun () -> Giantsan_asan.Asan_runtime.create ~name:"ASan--" Helpers.mid_config);
      (Instrument.Giantsan, Helpers.giantsan ?config:None);
      (Instrument.Giantsan_cache_only, Helpers.giantsan ?config:None);
      (Instrument.Giantsan_elim_only, Helpers.giantsan ?config:None);
    ]

let test_check_counts_figure8_style () =
  (* counted-loop program: ASan pays N checks, GiantSan pays O(1) *)
  let prog = sum_program () in
  let asan, _ = run_with Instrument.Asan Helpers.asan prog in
  let gs, _ = run_with Instrument.Giantsan Helpers.giantsan prog in
  let a_checks = Counters.total_checks asan.San.counters in
  let g_checks = Counters.total_checks gs.San.counters in
  Alcotest.(check bool)
    (Printf.sprintf "ASan %d checks >= 200" a_checks)
    true (a_checks >= 200);
  Alcotest.(check bool)
    (Printf.sprintf "GiantSan %d checks <= 10" g_checks)
    true (g_checks <= 10)

let overflow_loop_program n_past =
  (* writes 0..N+n_past over a 400-byte buffer: the tail overflows *)
  let b = B.create () in
  let iters = Stdlib.( + ) 50 n_past in
  B.program "overflow"
    [
      B.malloc "p" (B.i 400);
      B.assign "i" (B.i 0);
      B.while_ b ~cond:B.(v "i" < i iters)
        [
          B.store b ~base:"p" ~index:(B.v "i") ~scale:8 ~value:(B.v "i") ();
          B.assign "i" B.(v "i" + i 1);
        ];
    ]

let test_overflow_detected_by_all_sanitizers () =
  List.iter
    (fun (mode, make_san, name) ->
      let _, out = run_with mode make_san (overflow_loop_program 3) in
      Alcotest.(check bool) (name ^ " detects loop overflow") true
        (out.Interp.reports <> []))
    [
      (Instrument.Asan, Helpers.asan ?config:None, "ASan");
      (Instrument.Giantsan, Helpers.giantsan ?config:None, "GiantSan");
      (Instrument.Giantsan_cache_only, Helpers.giantsan ?config:None, "CacheOnly");
      (Instrument.Giantsan_elim_only, Helpers.giantsan ?config:None, "ElimOnly");
    ]

let test_native_does_not_detect () =
  let _, out = run_with Instrument.Native Helpers.native (overflow_loop_program 1) in
  Alcotest.(check (list string)) "native sees nothing" []
    (List.map Report.to_string out.Interp.reports)

let test_promoted_check_fires_before_loop () =
  (* a bounded loop that would overflow: the preheader CI already reports,
     so exactly one report suffices for the whole loop *)
  let b = B.create () in
  let prog =
    B.program "promoted_overflow"
      [
        B.malloc "p" (B.i 80);
        B.for_ b ~idx:"i" ~lo:(B.i 0) ~hi:(B.i 20)
          [ B.store b ~base:"p" ~index:(B.v "i") ~scale:8 ~value:(B.i 7) () ];
      ]
  in
  let san, out = run_with Instrument.Giantsan Helpers.giantsan prog in
  Alcotest.(check bool) "report raised" true (out.Interp.reports <> []);
  Alcotest.(check bool) "one region check, no per-iteration work" true
    (san.San.counters.Counters.region_checks <= 2)

let test_memset_checked () =
  let b = B.create () in
  let mk len =
    B.program "memset"
      [
        B.malloc "p" (B.i 256);
        B.memset b ~dst:"p" ~doff:(B.i 0) ~len:(B.i len) ~value:(B.i 0xCC);
      ]
  in
  let _, ok = run_with Instrument.Giantsan Helpers.giantsan (mk 256) in
  Alcotest.(check (list string)) "exact fit passes" []
    (List.map Report.to_string ok.Interp.reports);
  let _, bad = run_with Instrument.Giantsan Helpers.giantsan (mk 257) in
  Alcotest.(check int) "overflowing memset reported" 1
    (List.length bad.Interp.reports)

let test_memcpy_checked () =
  let b = B.create () in
  let prog =
    B.program "memcpy"
      [
        B.malloc "src" (B.i 64);
        B.malloc "dst" (B.i 32);
        B.memcpy b ~dst:"dst" ~doff:(B.i 0) ~src:"src" ~soff:(B.i 0)
          ~len:(B.i 64);
      ]
  in
  let _, out = run_with Instrument.Giantsan Helpers.giantsan prog in
  Alcotest.(check bool) "destination overflow caught" true
    (out.Interp.reports <> [])

let test_memset_data_effect () =
  let b = B.create () in
  let prog =
    B.program "memset_data"
      [
        B.malloc "p" (B.i 64);
        B.memset b ~dst:"p" ~doff:(B.i 0) ~len:(B.i 64) ~value:(B.i 0xAB);
        B.assign "v" (B.load b ~base:"p" ~index:(B.i 3) ~scale:1 ());
      ]
  in
  let _, out = run_with Instrument.Giantsan Helpers.giantsan prog in
  Alcotest.(check int) "filled byte readable" 0xAB (Interp.var out "v")

let test_uaf_flow () =
  let b = B.create () in
  let prog =
    B.program "uaf"
      [
        B.malloc "p" (B.i 64);
        B.free (B.v "p");
        B.assign "v" (B.load b ~base:"p" ~index:(B.i 0) ~scale:8 ());
      ]
  in
  List.iter
    (fun (mode, make_san, name) ->
      let _, out = run_with mode make_san prog in
      match out.Interp.reports with
      | [ r ] ->
        Alcotest.(check string) (name ^ " classifies UAF") "heap-use-after-free"
          (Report.kind_name r.Report.kind)
      | l -> Alcotest.failf "%s: expected 1 report, got %d" name (List.length l))
    [
      (Instrument.Asan, Helpers.asan ?config:None, "ASan");
      (Instrument.Giantsan, Helpers.giantsan ?config:None, "GiantSan");
    ]

let test_double_free_flow () =
  let b = B.create () in
  ignore b;
  let prog =
    B.program "df" [ B.malloc "p" (B.i 64); B.free (B.v "p"); B.free (B.v "p") ]
  in
  let _, out = run_with Instrument.Giantsan Helpers.giantsan prog in
  match out.Interp.reports with
  | [ r ] ->
    Alcotest.(check string) "double free" "double-free" (Report.kind_name r.Report.kind)
  | l -> Alcotest.failf "expected 1 report, got %d" (List.length l)

let test_fuel_exhaustion () =
  let b = B.create () in
  let prog =
    B.program "spin"
      [ B.assign "i" (B.i 0); B.while_ b ~cond:(B.i 1) [ B.assign "i" B.(v "i" + i 1) ] ]
  in
  let san = Helpers.native () in
  let out = Interp.run ~fuel:10_000 san (Instrument.plan Instrument.Native prog) prog in
  Alcotest.(check bool) "fuel ran out" true out.Interp.fuel_exhausted

let test_out_of_memory_flow () =
  let b = B.create () in
  let prog =
    B.program "oom"
      [
        B.for_ b ~idx:"i" ~lo:(B.i 0) ~hi:(B.i 1000000)
          [ B.malloc "p" (B.i 4096) ];
      ]
  in
  let config = { Helpers.small_config with Giantsan_memsim.Heap.quarantine_budget = 0 } in
  let san = Helpers.native ~config () in
  let out = Interp.run san (Instrument.plan Instrument.Native prog) prog in
  Alcotest.(check bool) "stopped on OOM" true out.Interp.out_of_memory

let test_wild_write_crashes_native () =
  let b = B.create () in
  let prog =
    B.program "wild"
      [
        B.malloc "p" (B.i 64);
        B.store b ~base:"p" ~index:(B.i 100000000) ~scale:8 ~value:(B.i 1) ();
      ]
  in
  let _, out = run_with Instrument.Native Helpers.native prog in
  Alcotest.(check bool) "native crashes" true out.Interp.crashed;
  (* under GiantSan the check fires first and the op is suppressed *)
  let _, out2 = run_with Instrument.Giantsan Helpers.giantsan prog in
  Alcotest.(check bool) "giantsan survives" false out2.Interp.crashed;
  Alcotest.(check bool) "giantsan reports" true (out2.Interp.reports <> [])

let test_exec_stats_breakdown () =
  let prog = sum_program () in
  let _, out = run_with Instrument.Giantsan Helpers.giantsan prog in
  let s = out.Interp.stats in
  (* both loops promoted: all 200 accesses eliminated *)
  Alcotest.(check int) "eliminated executions" 200 s.Interp.x_eliminated;
  Alcotest.(check int) "no plain executions" 0 s.Interp.x_plain;
  let _, out_asan = run_with Instrument.Asan Helpers.asan prog in
  Alcotest.(check int) "asan: everything plain" 200 out_asan.Interp.stats.Interp.x_plain

let test_if_branches () =
  let b = B.create () in
  ignore b;
  let prog =
    B.program "branches"
      [
        B.assign "x" (B.i 5);
        B.if_ B.(v "x" > i 3)
          [ B.assign "y" (B.i 1) ]
          [ B.assign "y" (B.i 2) ];
        B.if_ B.(v "x" > i 100)
          [ B.assign "z" (B.i 1) ]
          [ B.assign "z" (B.i 2) ];
      ]
  in
  let san = Helpers.native () in
  let out = Interp.run san (Instrument.plan Instrument.Native prog) prog in
  Alcotest.(check int) "then branch" 1 (Interp.var out "y");
  Alcotest.(check int) "else branch" 2 (Interp.var out "z")

let test_ops_counted () =
  let prog = sum_program () in
  let _, out = run_with Instrument.Native Helpers.native prog in
  Alcotest.(check bool) "work was accounted" true (out.Interp.ops > 500)

let suite =
  ( "interp",
    [
      Helpers.qt "semantics identical across all modes" `Quick
        test_semantics_all_modes;
      Helpers.qt "check counts: N vs O(1)" `Quick test_check_counts_figure8_style;
      Helpers.qt "loop overflow detected by all tools" `Quick
        test_overflow_detected_by_all_sanitizers;
      Helpers.qt "native detects nothing" `Quick test_native_does_not_detect;
      Helpers.qt "promoted preheader check fires" `Quick
        test_promoted_check_fires_before_loop;
      Helpers.qt "memset is guarded" `Quick test_memset_checked;
      Helpers.qt "memcpy is guarded" `Quick test_memcpy_checked;
      Helpers.qt "memset writes data" `Quick test_memset_data_effect;
      Helpers.qt "use-after-free flow" `Quick test_uaf_flow;
      Helpers.qt "double-free flow" `Quick test_double_free_flow;
      Helpers.qt "fuel exhaustion" `Quick test_fuel_exhaustion;
      Helpers.qt "out-of-memory stops the run" `Quick test_out_of_memory_flow;
      Helpers.qt "wild write: crash vs report" `Quick test_wild_write_crashes_native;
      Helpers.qt "execution stats breakdown" `Quick test_exec_stats_breakdown;
      Helpers.qt "if branches" `Quick test_if_branches;
      Helpers.qt "native ops counted" `Quick test_ops_counted;
    ] )
