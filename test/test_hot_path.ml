(* The allocation-free hot path: with telemetry off, every sanitizer entry
   point the instrumented program calls per access — [access],
   [cached_access] (hit and miss, both directions), [flush_cache] and
   [check_region] (word kernel and scalar kernel sizes) — allocates zero
   minor words on every backend, and so does the fuzz-mode [restore]
   between execs. Closures, options, results and boxed int64s on the
   success path all show up here as words per call. *)

module Memsim = Giantsan_memsim
module San = Giantsan_sanitizer.Sanitizer
module Backend = Giantsan_policy.Backend
module Trace = Giantsan_telemetry.Trace

let calls = 100_000
let obj_size = 512

(* Minor words [call] allocated over [calls] calls, after one warm-up
   call. [call] gets the iteration number so a case can reset state. *)
let words_over_calls call =
  call 0;
  Helpers.minor_words_of (fun () ->
      for i = 1 to calls do
        call i
      done)

let clean what = function
  | None -> ()
  | Some (_ : Giantsan_sanitizer.Report.t) ->
    Alcotest.fail (what ^ ": in-bounds call reported an error")

(* Forget every window, so the next cached access misses again. *)
let empty_windows (c : San.cache) =
  for k = 0 to Array.length c.San.windows - 1 do
    let w = c.San.windows.(k) in
    w.San.w_lo <- 0;
    w.San.w_hi <- 0
  done

(* The cases: each builds its state once (that may allocate) and returns
   the per-call body. [b] is the base of a live [obj_size]-byte object. *)
let cases : (string * (San.t -> int -> int -> unit)) list =
  [
    ( "access anchored",
      fun san b ->
        fun i ->
          clean "access"
            (san.San.access ~base:b ~addr:(b + (8 * (i land 31))) ~width:8) );
    ( "access unanchored",
      fun san b ->
        fun i ->
          clean "access"
            (san.San.access ~base:0 ~addr:(b + (8 * (i land 31))) ~width:8) );
    ( "access underflow",
      fun san b ->
        fun i ->
          clean "access"
            (san.San.access ~base:(b + 256)
               ~addr:(b + (8 * (i land 31)))
               ~width:8) );
    ( "cached_access hit forward",
      fun san b ->
        let cache = san.San.new_cache ~base:b in
        clean "warm" (san.San.cached_access cache ~off:(obj_size - 8) ~width:8);
        fun i ->
          clean "cached_access"
            (san.San.cached_access cache ~off:(8 * (i land 63)) ~width:8) );
    ( "cached_access hit reverse",
      fun san b ->
        let cache = san.San.new_cache ~base:(b + obj_size - 8) in
        clean "warm"
          (san.San.cached_access cache ~off:(8 - obj_size) ~width:8);
        fun i ->
          clean "cached_access"
            (san.San.cached_access cache ~off:(-8 * (i land 63)) ~width:8) );
    ( "cached_access miss forward",
      fun san b ->
        let cache = san.San.new_cache ~base:b in
        fun i ->
          empty_windows cache;
          clean "cached_access"
            (san.San.cached_access cache ~off:(8 * (i land 63)) ~width:8) );
    ( "cached_access miss reverse",
      fun san b ->
        let cache = san.San.new_cache ~base:(b + obj_size - 8) in
        fun i ->
          empty_windows cache;
          clean "cached_access"
            (san.San.cached_access cache ~off:(-8 * (1 + (i land 62))) ~width:8)
    );
    ( "flush_cache",
      fun san b ->
        let cache = san.San.new_cache ~base:(b + 256) in
        clean "warm" (san.San.cached_access cache ~off:64 ~width:8);
        clean "warm" (san.San.cached_access cache ~off:(-128) ~width:8);
        fun _ -> clean "flush_cache" (san.San.flush_cache cache) );
    ( "check_region <= 64 B",
      fun san b ->
        fun i ->
          let lo = b + (8 * (i land 7)) in
          clean "check_region" (san.San.check_region ~lo ~hi:(lo + 48)) );
    ( "check_region > 64 B",
      fun san b ->
        fun i ->
          let lo = b + (8 * (i land 7)) in
          clean "check_region" (san.San.check_region ~lo ~hi:(lo + 400)) );
  ]

(* The fuzz-mode rewind between execs: a restore with nothing dirty, and
   one after arena stores and an oracle write (both windows to blit). *)
let restore_cases : (string * (San.t -> int -> int -> unit)) list =
  [
    ( "restore clean",
      fun san _ ->
        san.San.snapshot ();
        fun _ -> san.San.restore () );
    ( "restore dirty heap",
      fun san b ->
        san.San.snapshot ();
        let heap = san.San.heap in
        let oracle = Memsim.Heap.oracle heap in
        let obj = Option.get (Memsim.Heap.find_object heap b) in
        fun i ->
          Memsim.Arena.store (Memsim.Heap.arena heap)
            ~addr:(b + (8 * (i land 31)))
            ~width:8 i;
          (* dirties the object's heads and slot; [claim] is left out
             because its [Some obj] box is claim's cost, not restore's *)
          Memsim.Oracle.release oracle obj;
          san.San.restore () );
  ]

let test_case id (label, make) =
  let name = Printf.sprintf "%s %s: 0 words/call" (Backend.name id) label in
  Helpers.qt name `Quick (fun () ->
      Trace.disable ();
      let san = Backend.create id Helpers.mid_config in
      let b = (san.San.malloc obj_size).Memsim.Memobj.base in
      let call = make san b in
      let words = words_over_calls call in
      if words > Helpers.counter_cost () then
        Alcotest.fail
          (Printf.sprintf "%.0f words over %d calls (%.4f per call)" words
             calls
             (words /. float_of_int calls)))

(* A scenario [Access_loop] step walks its offsets without materialising
   them: a 4096-offset loop (plus the allocation and the executor's
   per-run setup) costs less than one minor word per offset. *)
let loop_offsets = 4096

let test_access_loop id =
  let name =
    Printf.sprintf "%s Access_loop of %d offsets: < 1 word/offset"
      (Backend.name id) loop_offsets
  in
  Helpers.qt name `Quick (fun () ->
      Trace.disable ();
      let module Sc = Giantsan_bugs.Scenario in
      let sc =
        {
          Sc.sc_id = "loop";
          sc_cwe = 0;
          sc_buggy = false;
          sc_steps =
            [
              Sc.Alloc
                { slot = 0; size = loop_offsets; kind = Memsim.Memobj.Heap };
              Sc.Access_loop
                {
                  slot = 0;
                  from_ = 0;
                  to_ = loop_offsets;
                  step = 1;
                  width = 1;
                };
            ];
        }
      in
      let san = Backend.create id Helpers.mid_config in
      san.San.snapshot ();
      let run () =
        match Sc.run_reports san sc with
        | [] -> san.San.restore ()
        | _ :: _ -> Alcotest.fail "in-bounds loop reported an error"
      in
      run ();
      let words = Helpers.minor_words_of run -. Helpers.counter_cost () in
      if words >= float_of_int loop_offsets then
        Alcotest.fail
          (Printf.sprintf "%.0f words over %d offsets" words loop_offsets))

(* The traced path, pinned event by event: a cached forward loop, a
   cached reverse loop, one anchored access and one region check, then the
   object is freed and both caches are flushed (the second flush reports
   the use-after-free). Making the untraced path cheaper must leave this
   sequence byte-identical. *)

let traced_loops () =
  let san = Giantsan_core.Gs_runtime.create Helpers.small_config in
  let b = (san.San.malloc 64).Memsim.Memobj.base in
  let (), events =
    Trace.with_capture (fun () ->
        let fwd = san.San.new_cache ~base:b in
        for j = 0 to 3 do
          ignore (san.San.cached_access fwd ~off:(8 * j) ~width:8)
        done;
        let rev = san.San.new_cache ~base:(b + 56) in
        for j = 0 to 3 do
          ignore (san.San.cached_access rev ~off:(-8 * j) ~width:8)
        done;
        ignore (san.San.access ~base:b ~addr:(b + 40) ~width:4);
        ignore (san.San.check_region ~lo:(b + 8) ~hi:(b + 60));
        ignore (san.San.flush_cache fwd);
        ignore (san.San.free b);
        ignore (san.San.flush_cache rev))
  in
  Giantsan_telemetry.Export.ndjson_lines events

let expected_trace =
  [
    {|{"seq":0,"ev":"cache_update","tool":"GiantSan","ub":64}|};
    {|{"seq":1,"ev":"access","tool":"GiantSan","addr":80,"width":8,"path":"fast"}|};
    {|{"seq":2,"ev":"cache_hit","tool":"GiantSan","off":8}|};
    {|{"seq":3,"ev":"access","tool":"GiantSan","addr":88,"width":8,"path":"fast"}|};
    {|{"seq":4,"ev":"cache_hit","tool":"GiantSan","off":16}|};
    {|{"seq":5,"ev":"access","tool":"GiantSan","addr":96,"width":8,"path":"fast"}|};
    {|{"seq":6,"ev":"cache_hit","tool":"GiantSan","off":24}|};
    {|{"seq":7,"ev":"access","tool":"GiantSan","addr":104,"width":8,"path":"fast"}|};
    {|{"seq":8,"ev":"cache_update","tool":"GiantSan","ub":8}|};
    {|{"seq":9,"ev":"access","tool":"GiantSan","addr":136,"width":8,"path":"fast"}|};
    {|{"seq":10,"ev":"cache_update","tool":"GiantSan","ub":8}|};
    {|{"seq":11,"ev":"access","tool":"GiantSan","addr":128,"width":8,"path":"fast"}|};
    {|{"seq":12,"ev":"cache_hit","tool":"GiantSan","off":-16}|};
    {|{"seq":13,"ev":"access","tool":"GiantSan","addr":120,"width":8,"path":"fast"}|};
    {|{"seq":14,"ev":"cache_hit","tool":"GiantSan","off":-24}|};
    {|{"seq":15,"ev":"access","tool":"GiantSan","addr":112,"width":8,"path":"fast"}|};
    {|{"seq":16,"ev":"region_check","tool":"GiantSan","lo":80,"hi":124,"path":"fast","loads":1}|};
    {|{"seq":17,"ev":"shadow_load","tool":"GiantSan","count":1}|};
    {|{"seq":18,"ev":"access","tool":"GiantSan","addr":120,"width":4,"path":"fast"}|};
    {|{"seq":19,"ev":"region_check","tool":"GiantSan","lo":88,"hi":140,"path":"fast","loads":1}|};
    {|{"seq":20,"ev":"shadow_load","tool":"GiantSan","count":1}|};
    {|{"seq":21,"ev":"free","tool":"GiantSan","addr":80}|};
    {|{"seq":22,"ev":"report","tool":"GiantSan","kind":"heap-use-after-free","addr":80}|};
  ]

let test_traced_event_order =
  Helpers.qt "giantsan traced cached loops: pinned event sequence" `Quick
    (fun () ->
      Alcotest.(check (list string)) "events" expected_trace (traced_loops ()))

(* The write side under the fuzz-mode profile: one seeded malloc/free
   stream (64 slots, sizes up to 2 KiB), with a snapshot armed and
   restored every [churn_restore] ops, so every poisoning store widens an
   armed shadow dirty window. The heap does the same work on every
   backend, so any minor word a backend spends beyond Native's is spent by
   its plane hooks: GiantSan's and ASan's poison kernels and window, PAC's
   sign, strip and table restore (LFP has no plane). *)
let churn_ops = 4096
let churn_slots = 64
let churn_restore = 256

let churn_stream =
  let rng = Giantsan_util.Rng.create 17 in
  Array.init churn_ops (fun _ ->
      ( Giantsan_util.Rng.int rng churn_slots,
        Giantsan_util.Rng.int_in rng 0 2048 ))

(* Minor words of one pass over the stream, after a warm-up pass. *)
let churn_words id =
  Trace.disable ();
  let san = Backend.create id Helpers.mid_config in
  san.San.snapshot ();
  let bases = Array.make churn_slots (-1) in
  let pass () =
    for i = 0 to churn_ops - 1 do
      if i mod churn_restore = 0 then begin
        san.San.restore ();
        Array.fill bases 0 churn_slots (-1)
      end;
      let slot, size = churn_stream.(i) in
      if bases.(slot) < 0 then
        bases.(slot) <- (san.San.malloc size).Memsim.Memobj.base
      else begin
        clean "free" (san.San.free bases.(slot));
        bases.(slot) <- -1
      end
    done
  in
  pass ();
  Helpers.minor_words_of pass

let test_churn_words_match_native =
  Helpers.qt "malloc+free under an armed dirty window: Native's minor words"
    `Quick (fun () ->
      let native = churn_words Backend.Native in
      List.iter
        (fun id ->
          let words = churn_words id in
          if Float.abs (words -. native) > Helpers.counter_cost () then
            Alcotest.failf "%s: %.0f words over %d ops, Native %.0f (%+.3f per op)"
              (Backend.name id) words churn_ops native
              ((words -. native) /. float_of_int churn_ops))
        [ Backend.Giantsan; Asan; Lfp; Pac ])

(* The interpreter: once a (program, plan) pair has run, a run resolves
   nothing, so its minor words are what executing the ops allocates —
   stack frames, loop caches, the outcome — not a hashed environment or
   a plan lookup per op. *)
module Runner = Giantsan_workload.Runner
module Specgen = Giantsan_workload.Specgen
module Instrument = Giantsan_analysis.Instrument
module Interp = Giantsan_analysis.Interp

let interp_profile () =
  Specgen.generate
    { (Giantsan_workload.Profiles.find "500.perlbench_r") with
      Specgen.p_seed = 7;
      p_phases = 4 }

(* Minor words and ops of one [Interp.run] of [prog] under [plan] on a
   [config] sanitizer restored to the snapshot taken at its creation. *)
let interp_words config =
  Trace.disable ();
  let san = Runner.make_sanitizer config in
  san.San.snapshot ();
  fun plan prog ->
    san.San.restore ();
    let ops = ref 0 in
    let words =
      Helpers.minor_words_of (fun () ->
          ops := (Interp.run san plan prog).Interp.ops)
    in
    (words, !ops)

let words_per_op_bound = 0.25

let test_interp_words_per_op config =
  Helpers.qt
    (Printf.sprintf "%s interpreted profile: <= %.2f words/op"
       (Runner.config_name config) words_per_op_bound)
    `Quick (fun () ->
      let prog = interp_profile () in
      let plan = Instrument.plan (Runner.instrument_mode config) prog in
      let run = interp_words config in
      ignore (run plan prog);
      let words, ops = run plan prog in
      let per_op = words /. float_of_int ops in
      if per_op > words_per_op_bound then
        Alcotest.failf "%.0f words over %d ops (%.3f per op)" words ops per_op)

(* A program already resolved under one plan is not resolved again under
   another: the first run under a second plan allocates just what the
   first run under a third does (that plan's own arrays), while the first
   run of a fresh copy of the program also pays for the resolution — at
   least 8 words per access (a resolved access alone is a 7-field
   record). *)
let test_interp_resolution_shared =
  Helpers.qt "second plan of a resolved program: no resolution words"
    `Quick (fun () ->
      let run = interp_words Runner.Giantsan in
      let plan prog = Instrument.plan Instrument.Giantsan prog in
      let prog = interp_profile () in
      ignore (run (Instrument.plan Instrument.Native prog) prog);
      let second, _ = run (plan prog) prog in
      let third, _ = run (plan prog) prog in
      let copy = interp_profile () in
      let fresh, _ = run (plan copy) copy in
      let accesses = List.length (Giantsan_ir.Ast.program_accesses prog) in
      Alcotest.(check (float 0.)) "second plan = third plan" third second;
      if fresh -. second < float_of_int (8 * accesses) then
        Alcotest.failf
          "fresh copy %.0f words, resolved program %.0f: under 8 x %d accesses"
          fresh second accesses)

(* What a compiled program keeps, against the source AST, over the Table 2
   profiles at the spec-sweep's 48 phases: its scopes, sites, loops and
   closures come to 1.266 times the AST's words. The bound leaves 10% of
   headroom; keeping the resolved statement trees beside the closures
   (2.53 times the AST's words in all) fails it. *)
let compiled_footprint_bound = 1.39

let test_compiled_footprint =
  Helpers.qt
    (Printf.sprintf "compiled Table 2 programs: <= %.2f x the AST's words"
       compiled_footprint_bound)
    `Quick (fun () ->
      let progs =
        List.map
          (fun (p : Specgen.profile) -> Specgen.generate { p with Specgen.p_phases = 48 })
          Giantsan_workload.Profiles.all
      in
      let sum f = List.fold_left (fun acc p -> acc + f p) 0 progs in
      let ast = sum (fun p -> Obj.reachable_words (Obj.repr p)) in
      let compiled = sum Interp.program_words in
      let ratio = float_of_int compiled /. float_of_int ast in
      if ratio > compiled_footprint_bound then
        Alcotest.failf "compiled %d words, AST %d words: %.3f x" compiled ast ratio)

(* ASan's linear guardian, reached through [check_region] and through
   [access] wider than 8 bytes: zero minor words at every region size from
   one segment to 16 KiB, across the word-wide scan's tail lengths. *)
let guardian_sizes = [ 8; 9; 15; 16; 17; 63; 64; 65; 72; 100; 511; 4096; 16384 ]

let test_asan_guardian_words =
  Helpers.qt "asan guardian, 8 B to 16 KiB: 0 words/call" `Quick (fun () ->
      Trace.disable ();
      let san = Backend.create Backend.Asan Helpers.mid_config in
      let b = (san.San.malloc (16384 + 64)).Memsim.Memobj.base in
      List.iter
        (fun size ->
          List.iter
            (fun (what, call) ->
              let words =
                Helpers.minor_words_of (fun () ->
                    for i = 0 to 999 do
                      call (b + (8 * (i land 7)))
                    done)
              in
              if words > Helpers.counter_cost () then
                Alcotest.failf "%s of %d B: %.0f words over 1000 calls" what
                  size words)
            [
              ( "check_region",
                fun lo -> clean "check_region" (san.San.check_region ~lo ~hi:(lo + size))
              );
              ( "access",
                fun addr -> clean "access" (san.San.access ~base:b ~addr ~width:size) );
            ])
        guardian_sizes)

(* The allocator's own minor words, with no sanitizer around it: one
   malloc served from the free cache, plus one free whose quarantine push
   (a zero budget keeps one block) evicts the previous block back into the
   cache. They are the object, the owner slot's option, the quarantine
   cell, the eviction list and the free outcome, and the cache's cons of
   the evicted base: no option per cache hit, no hashing. *)
let heap_cycle_words = 35

let test_heap_cycle_words =
  Helpers.qt
    (Printf.sprintf "heap: cache-hit malloc + evicting free = %d words"
       heap_cycle_words)
    `Quick (fun () ->
      let h =
        Memsim.Heap.create
          { Memsim.Heap.default_config with Memsim.Heap.quarantine_budget = 0 }
      in
      (* the number of blocks the free evicted *)
      let cycle () =
        match Memsim.Heap.free h (Memsim.Heap.malloc h 64).Memsim.Memobj.base with
        | Ok { Memsim.Heap.evicted = []; _ } -> 0
        | Ok { Memsim.Heap.evicted = [ _ ]; _ } -> 1
        | Ok _ | Error _ -> Alcotest.fail "free: not one eviction at most"
      in
      (* from the second cycle on, one block waits in quarantine and one
         in the cache *)
      ignore (cycle ());
      ignore (cycle ());
      let evictions = ref 0 in
      let words =
        Helpers.minor_words_of (fun () ->
            for _ = 1 to calls do
              evictions := !evictions + cycle ()
            done)
        -. Helpers.counter_cost ()
      in
      Alcotest.(check int) "one eviction per cycle" calls !evictions;
      Alcotest.(check (float 0.))
        "words per cycle" (float_of_int heap_cycle_words)
        (words /. float_of_int calls))

let backends = [ Backend.Native; Giantsan; Asan; Lfp; Pac ]

let suite =
  ( "hot path",
    List.concat_map
      (fun id -> List.map (test_case id) cases)
      backends
    @ [ test_traced_event_order ]
    @ List.concat_map
        (fun id ->
          List.map (test_case id) restore_cases @ [ test_access_loop id ])
        backends
    @ [ test_churn_words_match_native ]
    @ List.map test_interp_words_per_op [ Runner.Native; Runner.Giantsan ]
    @ [ test_interp_resolution_shared; test_compiled_footprint ]
    @ [ test_asan_guardian_words; test_heap_cycle_words ] )
