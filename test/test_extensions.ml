(* Extensions beyond the core reproduction: the §5.4 reverse-scan
   mitigations, guardian interceptors, realloc/calloc, shadow dumps. *)

module Memsim = Giantsan_memsim
module San = Giantsan_sanitizer.Sanitizer
module Report = Giantsan_sanitizer.Report
module Interceptors = Giantsan_sanitizer.Interceptors
module Folding = Giantsan_core.Folding
module SC = Giantsan_core.State_code
module Shadow_dump = Giantsan_core.Shadow_dump
module Shadow_mem = Giantsan_shadow.Shadow_mem
module Traversal = Giantsan_workload.Traversal
module Runner = Giantsan_workload.Runner

let put_string (san : San.t) ~addr s =
  let a = Memsim.Heap.arena san.San.heap in
  String.iteri
    (fun i c -> Memsim.Arena.store a ~addr:(addr + i) ~width:1 (Char.code c))
    s;
  Memsim.Arena.store a ~addr:(addr + String.length s) ~width:1 0

(* ---------------- lower_bound (§5.4 second mitigation) -------------- *)

let test_lower_bound_finds_object_base () =
  let san, m = Giantsan_core.Gs_runtime.create_exposed Helpers.small_config in
  let obj = san.San.malloc 1999 in
  let base = obj.Memsim.Memobj.base in
  List.iter
    (fun off ->
      Alcotest.(check int)
        (Printf.sprintf "from offset %d" off)
        base
        (Folding.lower_bound m ~addr:(base + off)))
    [ 8; 64; 512; 1024; 1992 ]

let test_lower_bound_logarithmic_loads () =
  let san, m = Giantsan_core.Gs_runtime.create_exposed Helpers.mid_config in
  let obj = san.San.malloc 65536 in
  let base = obj.Memsim.Memobj.base in
  Shadow_mem.reset_counters m;
  ignore (Folding.lower_bound m ~addr:(base + 65528));
  Alcotest.(check bool)
    (Printf.sprintf "O(log^2 n) loads, got %d" (Shadow_mem.loads m))
    true
    (Shadow_mem.loads m <= 200)

let test_lower_bound_never_crosses_redzone =
  Helpers.q "lower_bound stays within addressable run"
    QCheck.(pair small_int (int_range 0 400))
    (fun (seed, probe) ->
      let rng = Giantsan_util.Rng.create seed in
      let config = Helpers.small_config in
      let san, m =
        ( (fun () -> Giantsan_core.Gs_runtime.create_exposed config) ()
          : San.t * Shadow_mem.t )
      in
      let sizes = List.init 5 (fun _ -> Giantsan_util.Rng.int_in rng 1 500) in
      let objs = List.map (fun s -> san.San.malloc s) sizes in
      let obj = List.nth objs (probe mod 5) in
      let size = obj.Memsim.Memobj.size in
      if size = 0 then true
      else begin
        let addr = obj.Memsim.Memobj.base + (probe mod size) in
        let lb = Folding.lower_bound m ~addr in
        (* sound: everything from lb to the probe's segment is addressable *)
        lb >= obj.Memsim.Memobj.base
        && Helpers.oracle_safe san ~lo:lb ~hi:(addr land lnot 7)
      end)

let test_reverse_prescan_fixes_the_asymmetry () =
  (* the prescan was the workload-side workaround for the §5.4 reverse
     asymmetry; the MRU window history has since fixed the naive path
     itself, so the prescan is now only a small further saving (it skips
     the lower_bound walk and the per-window flush) rather than a rescue *)
  let san = Runner.make_sanitizer Runner.Giantsan in
  let base = Traversal.prepare san ~size:8192 in
  let naive = Traversal.reverse san ~base ~size:8192 in
  let smart = Traversal.reverse_prescan san ~base ~size:8192 in
  Alcotest.(check int) "same data" naive.Traversal.t_checksum
    smart.Traversal.t_checksum;
  Alcotest.(check bool)
    (Printf.sprintf "prescan loads tiny (%d vs %d)"
       smart.Traversal.t_shadow_loads naive.Traversal.t_shadow_loads)
    true
    (smart.Traversal.t_shadow_loads <= 4
    && naive.Traversal.t_shadow_loads <= 100
    && smart.Traversal.t_shadow_loads <= naive.Traversal.t_shadow_loads)

let test_reverse_prescan_still_detects () =
  let san = Runner.make_sanitizer Runner.Giantsan in
  let base = Traversal.prepare san ~size:4096 in
  let r = Traversal.reverse_prescan san ~base ~size:4104 in
  Alcotest.(check bool) "overflowing span caught up front" true
    (r.Traversal.t_reports > 0)

(* ---------------- degraded underflow mode (§5.4 alternative 1) ------ *)

let test_no_underflow_anchor_variant () =
  let mk ?check_underflow () =
    Giantsan_core.Gs_runtime.create ~name:"GiantSan-noUA" ?check_underflow
      Helpers.small_config
  in
  (* long-jump underflow past the redzone into the previous object *)
  let exercise san =
    let module M = Giantsan_memsim.Memobj in
    let _prev = san.San.malloc 256 in
    let obj = san.San.malloc 64 in
    let base = obj.M.base in
    san.San.access ~base ~addr:(base - 64) ~width:1
  in
  Alcotest.(check bool) "full GiantSan catches the long underflow" false
    (Helpers.check_is_safe (exercise (mk ())));
  Alcotest.(check bool) "degraded mode misses it (ASan semantics)" true
    (Helpers.check_is_safe (exercise (mk ~check_underflow:false ())));
  (* but direct redzone hits are still caught in degraded mode *)
  let san = mk ~check_underflow:false () in
  let obj = san.San.malloc 64 in
  Alcotest.(check bool) "redzone hit still caught" false
    (Helpers.check_is_safe
       (san.San.access ~base:obj.Giantsan_memsim.Memobj.base
          ~addr:(obj.Giantsan_memsim.Memobj.base - 1) ~width:1))

(* ---------------- shadow dumps -------------------------------------- *)

let test_shadow_dump () =
  let san, m = Giantsan_core.Gs_runtime.create_exposed Helpers.small_config in
  let obj = san.San.malloc 68 in
  let base = obj.Memsim.Memobj.base in
  let txt = Shadow_dump.around m ~addr:base () in
  Alcotest.(check bool) "marks the segment" true
    (Astring_contains.contains txt "=>");
  Alcotest.(check bool) "shows the fold" true
    (Astring_contains.contains txt "(3)-folded");
  let summary =
    Shadow_dump.run_summary m ~lo:obj.Memsim.Memobj.block_base
      ~hi:(Memsim.Memobj.block_end obj)
  in
  Alcotest.(check bool) "summary shows folded run" true
    (Astring_contains.contains summary "8x folded");
  Alcotest.(check bool) "summary shows partial" true
    (Astring_contains.contains summary "4-partial")

(* ---------------- interceptors -------------------------------------- *)

let test_strlen_strcpy () =
  let san = Helpers.giantsan ~config:Helpers.small_config () in
  let src = san.San.malloc 32 in
  let dst = san.San.malloc 32 in
  let s = src.Memsim.Memobj.base and d = dst.Memsim.Memobj.base in
  put_string san ~addr:s "hello";
  let len, reps = Interceptors.strlen san ~addr:s in
  Alcotest.(check int) "strlen" 5 len;
  Alcotest.(check int) "clean" 0 (List.length reps);
  Alcotest.(check int) "strcpy clean" 0
    (List.length (Interceptors.strcpy san ~dst:d ~src:s));
  let copied, _ = Interceptors.strlen san ~addr:d in
  Alcotest.(check int) "copied string" 5 copied

let test_strcpy_overflow_detected () =
  let san = Helpers.giantsan ~config:Helpers.small_config () in
  let src = san.San.malloc 32 in
  let dst = san.San.malloc 4 in
  let s = src.Memsim.Memobj.base and d = dst.Memsim.Memobj.base in
  put_string san ~addr:s "this string is too long";
  let reps = Interceptors.strcpy san ~dst:d ~src:s in
  Alcotest.(check bool) "overflow reported" true (reps <> []);
  (* and the copy must NOT have clobbered the redzone *)
  let a = Memsim.Heap.arena san.San.heap in
  Alcotest.(check int) "no partial copy" 0 (Memsim.Arena.load a ~addr:d ~width:1)

let test_strcpy_linear_vs_constant_loads () =
  let run make_san =
    let san = make_san () in
    let src = san.San.malloc 2048 in
    let dst = san.San.malloc 2048 in
    let s = src.Memsim.Memobj.base and d = dst.Memsim.Memobj.base in
    put_string san ~addr:s (String.make 2000 'x');
    let before = san.San.shadow_loads () in
    let reps = Interceptors.strcpy san ~dst:d ~src:s in
    Alcotest.(check int) "clean" 0 (List.length reps);
    san.San.shadow_loads () - before
  in
  let gs = run (Helpers.giantsan ~config:Helpers.small_config) in
  let asan = run (Helpers.asan ~config:Helpers.small_config) in
  Alcotest.(check bool)
    (Printf.sprintf "GiantSan guardian O(1) (%d) vs ASan linear (%d)" gs asan)
    true
    (gs <= 8 && asan >= 500)

let test_strncpy_padding () =
  let san = Helpers.giantsan ~config:Helpers.small_config () in
  let src = san.San.malloc 16 in
  let dst = san.San.malloc 16 in
  let s = src.Memsim.Memobj.base and d = dst.Memsim.Memobj.base in
  put_string san ~addr:s "ab";
  Alcotest.(check int) "clean" 0
    (List.length (Interceptors.strncpy san ~dst:d ~src:s ~n:8));
  let a = Memsim.Heap.arena san.San.heap in
  Alcotest.(check int) "copied" (Char.code 'b') (Memsim.Arena.load a ~addr:(d + 1) ~width:1);
  Alcotest.(check int) "padded" 0 (Memsim.Arena.load a ~addr:(d + 7) ~width:1);
  (* n overflowing dst is caught *)
  Alcotest.(check bool) "overflowing n caught" true
    (Interceptors.strncpy san ~dst:d ~src:s ~n:20 <> [])

let test_strcat () =
  let san = Helpers.giantsan ~config:Helpers.small_config () in
  let dst = san.San.malloc 32 in
  let src = san.San.malloc 32 in
  let d = dst.Memsim.Memobj.base and s = src.Memsim.Memobj.base in
  put_string san ~addr:d "foo";
  put_string san ~addr:s "bar";
  Alcotest.(check int) "clean" 0 (List.length (Interceptors.strcat san ~dst:d ~src:s));
  let len, _ = Interceptors.strlen san ~addr:d in
  Alcotest.(check int) "foobar" 6 len

let test_memmove_and_memset () =
  let san = Helpers.giantsan ~config:Helpers.small_config () in
  let obj = san.San.malloc 64 in
  let b = obj.Memsim.Memobj.base in
  Alcotest.(check int) "memset ok" 0
    (List.length (Interceptors.memset san ~dst:b ~n:64 ~byte:7));
  Alcotest.(check int) "memmove overlap ok" 0
    (List.length (Interceptors.memmove san ~dst:(b + 8) ~src:b ~n:32));
  Alcotest.(check bool) "memmove OOB caught" true
    (Interceptors.memmove san ~dst:b ~src:b ~n:65 <> [])

let test_unterminated_string () =
  (* a "string" with no NUL before the arena's end: strlen reports *)
  let config =
    { Giantsan_memsim.Heap.arena_size = 4096; redzone = 16; quarantine_budget = 0 }
  in
  let san = Helpers.giantsan ~config () in
  let obj = san.San.malloc 64 in
  let b = obj.Memsim.Memobj.base in
  let a = Memsim.Heap.arena san.San.heap in
  (* fill the rest of the arena with non-zero bytes *)
  Memsim.Arena.fill a ~addr:b ~len:(4096 - b) 1;
  let _, reps = Interceptors.strlen san ~addr:b in
  Alcotest.(check bool) "runaway string reported" true (reps <> [])

let test_strlen_attribution () =
  (* regression: strlen used to fabricate a Wild_access report credited to
     whatever tool ran it, so Native "detected" runaway strings it cannot
     see. The scan now goes through each tool's own check_region: GiantSan
     flags the redzone/unallocated bytes it walked, Native stays blind. *)
  let config =
    { Giantsan_memsim.Heap.arena_size = 4096; redzone = 16; quarantine_budget = 0 }
  in
  let mk san =
    let obj = san.San.malloc 64 in
    let b = obj.Memsim.Memobj.base in
    let a = Memsim.Heap.arena san.San.heap in
    Memsim.Arena.fill a ~addr:b ~len:(4096 - b) 1;
    let len, reps = Interceptors.strlen san ~addr:b in
    (san, len, reps)
  in
  let _, glen, greps = mk (Helpers.giantsan ~config ()) in
  Alcotest.(check bool) "giantsan detects via its shadow" true (greps <> []);
  List.iter
    (fun (r : Report.t) ->
      Alcotest.(check string) "credited to GiantSan" "GiantSan"
        r.Report.detected_by)
    greps;
  let _, nlen, nreps = mk (Helpers.native ~config ()) in
  Alcotest.(check int) "same scan length" glen nlen;
  Alcotest.(check (list string)) "native detects nothing" []
    (List.map Report.to_string nreps)

let test_calloc_realloc () =
  let san = Helpers.giantsan ~config:Helpers.small_config () in
  let obj = Interceptors.calloc san ~count:8 ~size:16 in
  Alcotest.(check int) "calloc size" 128 obj.Memsim.Memobj.size;
  let a = Memsim.Heap.arena san.San.heap in
  Alcotest.(check int) "zeroed" 0
    (Memsim.Arena.load a ~addr:(obj.Memsim.Memobj.base + 120) ~width:8);
  Memsim.Arena.store a ~addr:obj.Memsim.Memobj.base ~width:8 424242;
  (match Interceptors.realloc san ~ptr:obj.Memsim.Memobj.base ~size:256 with
  | Ok fresh ->
    Alcotest.(check int) "grown" 256 fresh.Memsim.Memobj.size;
    Alcotest.(check int) "data carried over" 424242
      (Memsim.Arena.load a ~addr:fresh.Memsim.Memobj.base ~width:8);
    (* the old block is now quarantined: UAF on it is caught *)
    Alcotest.(check bool) "old pointer poisoned" false
      (Helpers.check_is_safe
         (san.San.access ~base:obj.Memsim.Memobj.base
            ~addr:obj.Memsim.Memobj.base ~width:8))
  | Error r -> Alcotest.failf "realloc failed: %s" (Report.to_string r));
  (* realloc of a wild pointer is an error *)
  match Interceptors.realloc san ~ptr:12345 ~size:64 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wild realloc must fail"

let test_realloc_null_is_malloc () =
  let san = Helpers.giantsan ~config:Helpers.small_config () in
  match Interceptors.realloc san ~ptr:0 ~size:64 with
  | Ok obj -> Alcotest.(check int) "malloc'd" 64 obj.Memsim.Memobj.size
  | Error _ -> Alcotest.fail "realloc(NULL, n) is malloc"

let test_interceptors_work_for_all_tools () =
  List.iter
    (fun (name, make) ->
      let san = make () in
      let src = san.San.malloc 64 in
      let dst = san.San.malloc 8 in
      (* long enough to clear even LFP's 16-byte size class for dst *)
      put_string san ~addr:src.Memsim.Memobj.base "01234567890123456789";
      let reps =
        Interceptors.strcpy san ~dst:dst.Memsim.Memobj.base
          ~src:src.Memsim.Memobj.base
      in
      Alcotest.(check bool) (name ^ " catches strcpy overflow") true (reps <> []))
    [
      ("GiantSan", Helpers.giantsan ~config:Helpers.small_config);
      ("ASan", Helpers.asan ~config:Helpers.small_config);
      ("LFP", Helpers.lfp ~config:Helpers.small_config);
    ]

let suite =
  ( "extensions",
    [
      Helpers.qt "lower_bound finds the object base" `Quick
        test_lower_bound_finds_object_base;
      Helpers.qt "lower_bound is logarithmic" `Quick
        test_lower_bound_logarithmic_loads;
      test_lower_bound_never_crosses_redzone;
      Helpers.qt "reverse prescan fixes the asymmetry" `Quick
        test_reverse_prescan_fixes_the_asymmetry;
      Helpers.qt "reverse prescan still detects" `Quick
        test_reverse_prescan_still_detects;
      Helpers.qt "degraded underflow mode (§5.4 alt 1)" `Quick
        test_no_underflow_anchor_variant;
      Helpers.qt "shadow dumps" `Quick test_shadow_dump;
      Helpers.qt "strlen/strcpy" `Quick test_strlen_strcpy;
      Helpers.qt "strcpy overflow detected, copy suppressed" `Quick
        test_strcpy_overflow_detected;
      Helpers.qt "guardian loads: O(1) vs linear" `Quick
        test_strcpy_linear_vs_constant_loads;
      Helpers.qt "strncpy pads and checks" `Quick test_strncpy_padding;
      Helpers.qt "strcat" `Quick test_strcat;
      Helpers.qt "memmove/memset guardians" `Quick test_memmove_and_memset;
      Helpers.qt "unterminated string reported" `Quick test_unterminated_string;
      Helpers.qt "strlen credits only real detections" `Quick
        test_strlen_attribution;
      Helpers.qt "calloc + realloc lifecycle" `Quick test_calloc_realloc;
      Helpers.qt "realloc(NULL) is malloc" `Quick test_realloc_null_is_malloc;
      Helpers.qt "interceptors across tools" `Quick
        test_interceptors_work_for_all_tools;
    ] )
