(* Targeted small tests for surfaces the larger suites exercise only
   incidentally. *)

module Memsim = Giantsan_memsim
module San = Giantsan_sanitizer.Sanitizer
module Report = Giantsan_sanitizer.Report
module Counters = Giantsan_sanitizer.Counters
module Interceptors = Giantsan_sanitizer.Interceptors
module Table = Giantsan_util.Table
module Rng = Giantsan_util.Rng
module Shadow_mem = Giantsan_shadow.Shadow_mem
module SC = Giantsan_core.State_code
module B = Giantsan_ir.Builder
module Pp = Giantsan_ir.Pp
module Ast = Giantsan_ir.Ast

let contains = Astring_contains.contains

let test_table_alignment () =
  let out =
    Table.render
      ~aligns:[ Table.Left; Table.Left ]
      [ [ "h1"; "h2" ]; [ "a"; "b" ] ]
  in
  Alcotest.(check bool) "rendered" true (contains out "h1");
  Alcotest.(check string) "fpct" "12.34%" (Table.fpct 12.336);
  Alcotest.(check string) "f2" "1.50" (Table.f2 1.5)

let test_report_classification_edges () =
  let san = Helpers.giantsan ~config:Helpers.small_config () in
  let heap = san.San.heap in
  (* near-null *)
  Alcotest.(check string) "null page" "null-dereference"
    (Report.kind_name (Report.classify_access heap ~addr:4 ~anchor:Report.no_anchor));
  (* unallocated middle of the arena *)
  Alcotest.(check string) "wild" "wild-access"
    (Report.kind_name (Report.classify_access heap ~addr:30000 ~anchor:Report.no_anchor));
  (* beyond the arena *)
  Alcotest.(check string) "off the end" "wild-access"
    (Report.kind_name
       (Report.classify_access heap ~addr:(1 lsl 40) ~anchor:Report.no_anchor));
  (* overflow vs underflow depends on the anchor *)
  let obj = san.San.malloc 64 in
  let base = obj.Memsim.Memobj.base in
  Alcotest.(check string) "underflow rel anchor" "heap-buffer-underflow"
    (Report.kind_name
       (Report.classify_access heap ~addr:(base - 2) ~anchor:base));
  Alcotest.(check string) "overflow rel anchor" "heap-buffer-overflow"
    (Report.kind_name
       (Report.classify_access heap ~addr:(base + 66) ~anchor:base))

let test_counters_add_reset () =
  let a = Counters.create () and b = Counters.create () in
  a.Counters.instr_checks <- 3;
  b.Counters.instr_checks <- 4;
  b.Counters.cache_hits <- 2;
  Counters.add a b;
  Alcotest.(check int) "summed" 7 a.Counters.instr_checks;
  Alcotest.(check int) "merged" 2 a.Counters.cache_hits;
  Alcotest.(check int) "total" 9 (Counters.total_checks a);
  Counters.reset a;
  Alcotest.(check int) "reset" 0 (Counters.total_checks a);
  Alcotest.(check bool) "pp renders" true
    (contains (Format.asprintf "%a" Counters.pp b) "instr_checks")

let test_native_is_silent_everywhere () =
  let san = Helpers.native ~config:Helpers.small_config () in
  let obj = san.San.malloc 64 in
  let base = obj.Memsim.Memobj.base in
  Alcotest.(check bool) "wild access unnoticed" true
    (Helpers.check_is_safe (san.San.access ~base ~addr:(base + 5000) ~width:8));
  Alcotest.(check bool) "bad region unnoticed" true
    (Helpers.check_is_safe (san.San.check_region ~lo:base ~hi:(base + 5000)));
  Alcotest.(check bool) "double free unnoticed" true
    (san.San.free base = None && san.San.free base = None);
  Alcotest.(check int) "no shadow" 0 (san.San.shadow_loads ())

let test_pp_functions_and_globals () =
  let f =
    B.func "f" ~params:[ "x"; "y" ]
      [ B.alloca "t" (B.i 16); B.return_ (Some B.(v "x" + v "y")) ]
  in
  let prog =
    B.program ~globals:[ ("g", 64) ] ~funcs:[ f ] "main"
      [ B.call ~dst:"r" "f" [ B.i 1; B.i 2 ]; B.return_ None ]
  in
  let s = Pp.program_to_string prog in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("prints " ^ needle) true (contains s needle))
    [ "global g[64]"; "f(x, y)"; "alloca(16)"; "return (x + y);"; "r = f(1, 2)";
      "return;" ]

let test_shadow_mem_edges () =
  let m = Shadow_mem.create ~segments:8 ~fill:SC.unallocated in
  (* regression: out-of-range loads return the fill WITHOUT counting —
     they touch no metadata, so charging them skewed the event-count
     ns/op model for workloads straddling the arena end (the load-side
     mirror of the fill_range clamp-then-count fix) *)
  Alcotest.(check int) "past the end" SC.unallocated (Shadow_mem.load m 100);
  Alcotest.(check int) "negative" SC.unallocated (Shadow_mem.load m (-1));
  Alcotest.(check int) "out-of-arena probes are free" 0 (Shadow_mem.loads m);
  Alcotest.(check int) "in-range load counts" SC.unallocated
    (Shadow_mem.load m 3);
  Alcotest.(check int) "exactly the in-arena load counted" 1
    (Shadow_mem.loads m);
  (* word loads follow the same rule: one load per word that overlaps the
     arena, nothing for a word entirely outside *)
  Shadow_mem.reset_counters m;
  ignore (Shadow_mem.load_word m 0);
  Alcotest.(check int) "in-arena word: one load" 1 (Shadow_mem.loads m);
  ignore (Shadow_mem.load_word m 4);
  Alcotest.(check int) "arena-end straddle: one load" 2 (Shadow_mem.loads m);
  ignore (Shadow_mem.load_word m 100);
  ignore (Shadow_mem.load_word m (-8));
  Alcotest.(check int) "fully outside words are free" 2 (Shadow_mem.loads m);
  ignore (Shadow_mem.peek_word m 0);
  Alcotest.(check int) "peek_word is uncounted" 2 (Shadow_mem.loads m);
  (* out-of-range stores are dropped silently *)
  Shadow_mem.set m 100 7;
  Alcotest.(check int) "in-range unaffected" SC.unallocated (Shadow_mem.peek m 7);
  Shadow_mem.fill_range m ~lo:(-3) ~hi:3 9;
  Alcotest.(check int) "clamped fill" 9 (Shadow_mem.peek m 0)

let test_interceptor_edges () =
  let san = Helpers.giantsan ~config:Helpers.small_config () in
  let obj = san.San.malloc 16 in
  let base = obj.Memsim.Memobj.base in
  Alcotest.(check int) "strncpy n=0" 0
    (List.length (Interceptors.strncpy san ~dst:base ~src:base ~n:0));
  Alcotest.(check int) "memmove n=0" 0
    (List.length (Interceptors.memmove san ~dst:base ~src:base ~n:0));
  Alcotest.(check int) "memset n<0" 0
    (List.length (Interceptors.memset san ~dst:base ~n:(-5) ~byte:1));
  (* empty string round trip *)
  let a = Memsim.Heap.arena san.San.heap in
  Memsim.Arena.store a ~addr:base ~width:1 0;
  let len, reps = Interceptors.strlen san ~addr:base in
  Alcotest.(check int) "empty strlen" 0 len;
  Alcotest.(check int) "clean" 0 (List.length reps)

let test_realloc_shrink () =
  let san = Helpers.giantsan ~config:Helpers.small_config () in
  let obj = san.San.malloc 128 in
  let a = Memsim.Heap.arena san.San.heap in
  Memsim.Arena.store a ~addr:obj.Memsim.Memobj.base ~width:8 777;
  match Interceptors.realloc san ~ptr:obj.Memsim.Memobj.base ~size:32 with
  | Ok fresh ->
    Alcotest.(check int) "shrunk" 32 fresh.Memsim.Memobj.size;
    Alcotest.(check int) "prefix kept" 777
      (Memsim.Arena.load a ~addr:fresh.Memsim.Memobj.base ~width:8);
    Alcotest.(check bool) "tail not addressable" false
      (Helpers.check_is_safe
         (san.San.access ~base:fresh.Memsim.Memobj.base
            ~addr:(fresh.Memsim.Memobj.base + 32) ~width:1))
  | Error r -> Alcotest.failf "shrink failed: %s" (Report.to_string r)

let test_rng_copy_independent () =
  let a = Rng.create 5 in
  ignore (Rng.next64 a);
  let b = Rng.copy a in
  let va = Rng.next64 a and vb = Rng.next64 b in
  Alcotest.(check int64) "same next after copy" va vb;
  ignore (Rng.next64 a);
  (* b unaffected by a's extra draws *)
  Alcotest.(check bool) "independent streams" true (Rng.next64 a <> Rng.next64 b)

let test_exposed_shadow_is_the_live_one () =
  let san, m = Giantsan_core.Gs_runtime.create_exposed Helpers.small_config in
  let obj = san.San.malloc 64 in
  Alcotest.(check int) "freshly folded" (SC.folded 3)
    (Shadow_mem.peek m (obj.Memsim.Memobj.base / 8));
  ignore (san.San.free obj.Memsim.Memobj.base);
  Alcotest.(check int) "freed through the same shadow" SC.freed
    (Shadow_mem.peek m (obj.Memsim.Memobj.base / 8))

let test_scenario_loop_offsets_edges () =
  let open Giantsan_bugs.Scenario in
  (* one descending step, none, and an empty ascending range *)
  let sc from_ to_ step =
    {
      sc_id = "x";
      sc_cwe = 0;
      sc_buggy = false;
      sc_steps =
        [
          Alloc { slot = 0; size = 64; kind = Memsim.Memobj.Heap };
          Access_loop { slot = 0; from_; to_; step; width = 1 };
        ];
    }
  in
  let san = Helpers.giantsan ~config:Helpers.small_config () in
  Alcotest.(check bool) "empty range runs clean" true
    (not (run san (sc 5 5 1)));
  Alcotest.(check bool) "single descending step clean" true
    (not (run (Helpers.giantsan ~config:Helpers.small_config ()) (sc 5 4 (-1))))

let test_lfp_region_of_freed () =
  let san = Helpers.lfp ~config:Helpers.small_config () in
  let obj = san.San.malloc 64 in
  ignore (san.San.free obj.Memsim.Memobj.base);
  Alcotest.(check bool) "region over freed slot flagged" false
    (Helpers.check_is_safe
       (san.San.check_region ~lo:obj.Memsim.Memobj.base
          ~hi:(obj.Memsim.Memobj.base + 32)))

let test_asanmm_shares_asan_runtime_behaviour () =
  let asan = Helpers.asan ~config:Helpers.small_config () in
  let asanmm =
    Giantsan_asan.Asan_runtime.create ~name:"ASan--" Helpers.small_config
  in
  let oa = asan.San.malloc 100 and om = asanmm.San.malloc 100 in
  Alcotest.(check int) "identical layout" oa.Memsim.Memobj.base
    om.Memsim.Memobj.base;
  let probe (san : San.t) base =
    List.map
      (fun off ->
        Helpers.check_is_safe (san.San.access ~base:0 ~addr:(base + off) ~width:1))
      [ 0; 99; 100; -1 ]
  in
  Alcotest.(check (list bool)) "identical verdicts"
    (probe asan oa.Memsim.Memobj.base)
    (probe asanmm om.Memsim.Memobj.base)

let suite =
  ( "coverage",
    [
      Helpers.qt "table rendering options" `Quick test_table_alignment;
      Helpers.qt "report classification edges" `Quick
        test_report_classification_edges;
      Helpers.qt "counters add/reset/pp" `Quick test_counters_add_reset;
      Helpers.qt "native baseline is truly blind" `Quick
        test_native_is_silent_everywhere;
      Helpers.qt "pp: functions and globals" `Quick test_pp_functions_and_globals;
      Helpers.qt "shadow memory edges" `Quick test_shadow_mem_edges;
      Helpers.qt "interceptor edge cases" `Quick test_interceptor_edges;
      Helpers.qt "realloc shrink keeps prefix" `Quick test_realloc_shrink;
      Helpers.qt "rng copy independence" `Quick test_rng_copy_independent;
      Helpers.qt "create_exposed shadow is live" `Quick
        test_exposed_shadow_is_the_live_one;
      Helpers.qt "scenario loop edge ranges" `Quick
        test_scenario_loop_offsets_edges;
      Helpers.qt "lfp: region over freed slot" `Quick test_lfp_region_of_freed;
      Helpers.qt "asan--: same runtime as asan" `Quick
        test_asanmm_shares_asan_runtime_behaviour;
    ] )
