(* Differential tests: the slot-resolved [Interp] against the tree-walking
   interpreter it replaced ([Interp_reference]). Both run the same program
   under the same plan on twin sanitizers, and must leave the same reports,
   op count, execution stats, outcome flags, sanitizer counters, final
   variables (as a set: the resolved interpreter lists them in slot order)
   and telemetry event sequence, or fail with the same message. The unit
   tests pin the corners where a resolved form could part ways with the
   tree walk: failure messages and their order, fuel, call depth, returns
   through cached loops, cache lookup across calls, flush order and plan
   edits between runs. *)

module Ast = Giantsan_ir.Ast
module B = Giantsan_ir.Builder
module Plan = Giantsan_analysis.Plan
module Instrument = Giantsan_analysis.Instrument
module Interp = Giantsan_analysis.Interp
module Ref = Interp_reference
module San = Giantsan_sanitizer.Sanitizer
module Report = Giantsan_sanitizer.Report
module Counters = Giantsan_sanitizer.Counters
module Runner = Giantsan_workload.Runner
module Specgen = Giantsan_workload.Specgen
module Profiles = Giantsan_workload.Profiles
module Trace = Giantsan_telemetry.Trace
module Export = Giantsan_telemetry.Export
module Memsim = Giantsan_memsim

(* What one run leaves behind, in a form both interpreters produce. *)
type run = {
  failure : string option;  (** the [Failure] the run raised, if any *)
  reports : string list;
  ops : int;
  stats : Interp.exec_stats option;
  flags : bool * bool * bool;  (** crashed, out of memory, out of fuel *)
  env : (string * int) list;  (** sorted *)
  counters : (string * int) list;
  events : string list;
}

let heap =
  { Memsim.Heap.arena_size = 1 lsl 17; redzone = 16; quarantine_budget = 8192 }

let failed msg =
  {
    failure = Some msg;
    reports = [];
    ops = 0;
    stats = None;
    flags = (false, false, false);
    env = [];
    counters = [];
    events = [];
  }

(* [exec san] runs one interpreter and returns its outcome's fields. *)
let capture ~heap config exec =
  let san = Runner.make_sanitizer ~heap config in
  match Trace.with_capture ~capacity:4096 (fun () -> exec san) with
  | exception Failure msg -> failed msg
  | (reports, ops, stats, flags, env), events ->
    {
      failure = None;
      reports = List.map Report.to_string reports;
      ops;
      stats = Some stats;
      flags;
      env = List.sort compare env;
      counters = Counters.to_assoc san.San.counters;
      events = Export.ndjson_lines events;
    }

let run_new ?fuel ~heap config plan prog =
  capture ~heap config (fun san ->
      let o = Interp.run ?fuel san plan prog in
      ( o.Interp.reports,
        o.ops,
        o.stats,
        (o.crashed, o.out_of_memory, o.fuel_exhausted),
        o.final_env ))

let run_ref ?fuel ~heap config plan prog =
  capture ~heap config (fun san ->
      let o = Ref.run ?fuel san plan prog in
      ( o.Ref.reports,
        o.ops,
        o.stats,
        (o.crashed, o.out_of_memory, o.fuel_exhausted),
        o.final_env ))

let describe r =
  match r.failure with
  | Some m -> "Failure " ^ m
  | None ->
    let c, m, f = r.flags in
    Printf.sprintf "ops=%d reports=%d crashed=%b oom=%b fuel=%b events=%d" r.ops
      (List.length r.reports) c m f (List.length r.events)

(* Both interpreters on one (program, plan) pair; fails the test on any
   difference. Returns the resolved interpreter's run. *)
let same ?fuel ?(heap = heap) what config plan prog =
  let got = run_new ?fuel ~heap config plan prog in
  let want = run_ref ?fuel ~heap config plan prog in
  if got <> want then
    Alcotest.failf "%s under %s: resolved {%s}, reference {%s}" what
      (Runner.config_name config) (describe got) (describe want);
  got

let configs =
  [
    Runner.Native; Asan; Asanmm; Lfp; Pac; Giantsan; Cache_only; Elim_only;
  ]

(* Every mode, at the default fuel and again at a third of the ops the
   run took, so fuel runs out mid-program at the same op on both sides. *)
let same_everywhere ?(heap = heap) what prog =
  List.iter
    (fun config ->
      let plan = Instrument.plan (Runner.instrument_mode config) prog in
      let full = same ~heap what config plan prog in
      if full.failure = None then
        ignore (same ~heap ~fuel:(full.ops / 3) what config plan prog))
    configs

(* {1 The properties} *)

(* A [test_progfuzz] program, with one planted bug for three seeds in
   four: an overflow through a loaded trip count, a use-after-free
   through a cached loop, or a freed buffer read again and freed twice. *)
let planted_program seed =
  let safe = Test_progfuzz.gen_safe_program seed in
  let b = B.create () in
  let bug =
    match seed mod 4 with
    | 0 -> []
    | 1 ->
      [
        B.store b ~base:"a" ~index:(B.i 0) ~scale:8 ~value:(B.i 9) ();
        B.assign "lim" B.(load b ~base:"a" ~index:(i 0) ~scale:8 () * i 100);
        B.assign "k" (B.i 0);
        B.while_ b
          ~cond:B.(v "k" < v "lim")
          [
            B.store b ~base:"a" ~index:(B.v "k") ~scale:8 ~value:(B.i 1) ();
            B.assign "k" B.(v "k" + i 1);
          ];
      ]
    | 2 ->
      [
        B.free (B.v "c");
        B.assign "k" (B.i 0);
        B.while_ b
          ~cond:B.(v "k" < i 4)
          [
            B.assign "s" B.(v "s" + load b ~base:"c" ~index:(v "k") ~scale:8 ());
            B.assign "k" B.(v "k" + i 1);
          ];
      ]
    | _ ->
      [
        B.free (B.v "a");
        B.for_ b ~idx:"j" ~lo:(B.i 0) ~hi:(B.i 3)
          [ B.store b ~base:"a" ~index:(B.v "j") ~scale:8 ~value:(B.v "j") () ];
        B.free (B.v "a");
      ]
  in
  { safe with Ast.body = safe.Ast.body @ bug }

let prop_random_programs =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100
       ~name:"random programs: resolved = tree walk under every mode"
       QCheck.small_int (fun seed ->
         same_everywhere (Printf.sprintf "fuzz seed %d" seed)
           (planted_program seed);
         true))

let n_profiles = List.length Profiles.all

let prop_spec_profiles =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:48
       ~name:"Specgen profiles: resolved = tree walk under every mode"
       QCheck.(pair (int_bound (n_profiles - 1)) small_int)
       (fun (k, seed) ->
         let p = List.nth Profiles.all k in
         let p =
           {
             p with
             Specgen.p_phases = 2;
             p_iters = 24;
             p_seed = p.Specgen.p_seed + seed;
           }
         in
         same_everywhere ~heap:Memsim.Heap.default_config p.Specgen.p_name
           (Specgen.generate p);
         true))

(* {1 The corners} *)

let giantsan_plan prog = Instrument.plan Instrument.Giantsan prog

let fails_with what msg prog =
  let r = same what Runner.Giantsan (giantsan_plan prog) prog in
  Alcotest.(check (option string)) what (Some msg) r.failure

let test_unbound_variable () =
  fails_with "unbound read" "Interp: unbound variable nope"
    (B.program "unbound" [ B.assign "x" B.(v "nope" + i 1) ]);
  (* the index is evaluated before the base: a crashing index wins *)
  let b = B.create () in
  let prog =
    B.program "unbound_base"
      [ B.assign "x" (B.load b ~base:"nope" ~index:B.(i 1 / i 0) ~scale:8 ()) ]
  in
  let r = same "crashing index" Runner.Giantsan (giantsan_plan prog) prog in
  Alcotest.(check bool) "crashed, not failed" true
    (r.failure = None && r.flags = (true, false, false));
  (* globals are not visible inside a callee *)
  let prog =
    B.program ~globals:[ ("g", 64) ]
      ~funcs:[ B.func "f" ~params:[] [ B.assign "y" (B.v "g") ] ]
      "global_in_callee"
      [ B.call "f" [] ]
  in
  fails_with "global in callee" "Interp: unbound variable g" prog

let test_unknown_function () =
  fails_with "unknown function" "Interp: unknown function nosuch"
    (B.program "unknown" [ B.assign "x" (B.i 1); B.call "nosuch" [ B.v "x" ] ])

let test_arity_mismatch () =
  let f = B.func "f" ~params:[ "a"; "b" ] [ B.return_ (Some (B.v "a")) ] in
  fails_with "arity" "Interp: arity mismatch calling f"
    (B.program ~funcs:[ f ] "arity" [ B.call ~dst:"r" "f" [ B.i 1 ] ]);
  (* the arguments still run first: a crashing one wins *)
  let prog =
    B.program ~funcs:[ f ] "arity_crash" [ B.call ~dst:"r" "f" [ B.(i 1 / i 0) ] ]
  in
  let r = same "arity after args" Runner.Giantsan (giantsan_plan prog) prog in
  Alcotest.(check bool) "crashed" true (r.flags = (true, false, false))

let test_call_depth () =
  let b = B.create () in
  let f =
    B.func "down" ~params:[ "n" ]
      [
        B.alloca "buf" (B.i 16);
        B.store b ~base:"buf" ~index:(B.i 0) ~scale:8 ~value:(B.v "n") ();
        B.call ~dst:"r" "down" [ B.(v "n" + i 1) ];
        B.return_ (Some (B.v "r"));
      ]
  in
  let prog = B.program ~funcs:[ f ] "deep" [ B.call ~dst:"r" "down" [ B.i 0 ] ] in
  List.iter
    (fun config ->
      let plan = Instrument.plan (Runner.instrument_mode config) prog in
      let r = same ~heap:Helpers.mid_config "depth 200" config plan prog in
      Alcotest.(check bool) "crashed at the depth limit" true
        (r.flags = (true, false, false)))
    [ Runner.Native; Giantsan; Asan ]

(* Both interpreters stop at the same op for every fuel from 0 to 40 and
   around the full run's op count, which is the least fuel that lets the
   run finish. *)
let test_fuel_same_op () =
  let prog = Test_interp.sum_program () in
  let plan = giantsan_plan prog in
  let starved r = match r.flags with _, _, f -> f in
  let full = same "sum" Runner.Giantsan plan prog in
  List.iter
    (fun fuel ->
      let r = same ~fuel "sum" Runner.Giantsan plan prog in
      Alcotest.(check bool)
        (Printf.sprintf "fuel %d of %d runs out" fuel full.ops)
        (fuel < full.ops) (starved r))
    (List.init 41 Fun.id @ [ full.ops / 2; full.ops - 1; full.ops ])

(* Two cached loops in a callee, left by a [Return] from the inner one
   after both buffers were freed: each loop exit still flushes its cache,
   and each flush reports the use-after-free. *)
let test_return_flushes_caches () =
  let b = B.create () in
  let f =
    B.func "scan" ~params:[ "p"; "q" ]
      [
        B.assign "k" (B.i 0);
        B.while_ b
          ~cond:B.(v "k" < i 2)
          [
            B.assign "s" (B.load b ~base:"p" ~index:(B.v "k") ~scale:8 ());
            B.assign "j" (B.i 0);
            B.while_ b
              ~cond:B.(v "j" < i 2)
              [
                B.assign "t" (B.load b ~base:"q" ~index:(B.v "j") ~scale:8 ());
                B.free (B.v "p");
                B.free (B.v "q");
                B.return_ (Some (B.v "t"));
              ];
            B.assign "k" B.(v "k" + i 1);
          ];
      ]
  in
  let prog =
    B.program ~funcs:[ f ] "return_in_loops"
      [
        B.malloc "x" (B.i 64);
        B.malloc "y" (B.i 64);
        B.call ~dst:"r" "scan" [ B.v "x"; B.v "y" ];
      ]
  in
  let r = same "return through cached loops" Runner.Giantsan (giantsan_plan prog) prog in
  Alcotest.(check int) "one use-after-free per flushed cache" 2
    (List.length r.reports)

(* A plan that caches [p] around the caller's loop and marks the callee's
   access through its own [p] cached: the callee finds the caller's cache
   by name. *)
let test_callee_finds_caller_cache () =
  let b = B.create () in
  let load = B.access b ~base:"p" ~index:(B.i 1) ~scale:8 () in
  let f = B.func "peek" ~params:[ "p" ] [ B.return_ (Some (Ast.Load load)) ] in
  let loop =
    B.while_ b
      ~cond:B.(v "k" < i 3)
      [ B.call ~dst:"r" "peek" [ B.v "p" ]; B.assign "k" B.(v "k" + i 1) ]
  in
  let loop_id =
    match loop with Ast.While { loop_id; _ } -> loop_id | _ -> assert false
  in
  let prog =
    B.program ~funcs:[ f ] "callee_cache"
      [ B.malloc "p" (B.i 64); B.assign "k" (B.i 0); loop ]
  in
  let plan = Plan.create ~mode_name:"manual" ~enabled:true ~use_anchor:true in
  Plan.set_decision plan load.Ast.acc_id Plan.Cached;
  Plan.add_loop_cache plan loop_id "p";
  let r = same "callee cache" Runner.Giantsan plan prog in
  Alcotest.(check int) "every callee access went through the cache" 3
    (Option.get r.stats).Interp.x_cached

(* Four cached buffers in one loop, all freed inside it: the flush at loop
   exit reports each use-after-free, in the tree walk's hash-table order
   (which for these names is not the plan's order). *)
let test_flush_order () =
  let b = B.create () in
  let names = [ "alpha"; "beta"; "gamma"; "delta"; "eps" ] in
  let prog =
    B.program "flush_order"
      (List.map (fun v -> B.malloc v (B.i 64)) names
      @ [
          B.assign "k" (B.i 0);
          B.while_ b
            ~cond:B.(v "k" < i 1)
            (List.map
               (fun v ->
                 B.assign ("x_" ^ v) (B.load b ~base:v ~index:(B.v "k") ~scale:8 ()))
               names
            @ List.map (fun v -> B.free (B.v v)) names
            @ [ B.assign "k" B.(v "k" + i 1) ]);
        ])
  in
  let plan = giantsan_plan prog in
  let r = same "flush order" Runner.Giantsan plan prog in
  Alcotest.(check int) "one report per flushed cache" (List.length names)
    (List.length r.reports);
  let out = Interp.run (Runner.make_sanitizer ~heap Runner.Giantsan) plan prog in
  let flushed =
    List.map (fun (rep : Report.t) -> rep.Report.addr) out.Interp.reports
  in
  let allocated = List.map (fun v -> Interp.var out v) names in
  Alcotest.(check bool) "flush order differs from plan order" true
    (flushed <> allocated)

(* A plan edited between two runs of the same program: the second run
   obeys the edit. *)
let test_plan_edit_between_runs () =
  let prog = Test_interp.sum_program () in
  let plan = Instrument.plan Instrument.Asan prog in
  let first = same "before the edit" Runner.Asan plan prog in
  List.iter
    (fun (acc : Ast.access) -> Plan.set_decision plan acc.Ast.acc_id Plan.Eliminated)
    (Ast.program_accesses prog);
  let second = same "after the edit" Runner.Asan plan prog in
  let plain r = (Option.get r.stats).Interp.x_plain in
  let elim r = (Option.get r.stats).Interp.x_eliminated in
  Alcotest.(check (pair int int)) "first run: all plain" (200, 0)
    (plain first, elim first);
  Alcotest.(check (pair int int)) "second run: all eliminated" (0, 200)
    (plain second, elim second)

(* Plan regions the instrumenter never builds but [Plan] accepts: a load
   with an id of no program access (with its own merged pre-check), and a
   name the program never mentions. *)
let test_foreign_plan_regions () =
  let b = B.create () in
  let loop =
    B.for_ b ~idx:"i" ~lo:(B.i 0) ~hi:(B.i 4)
      [ B.store b ~base:"p" ~index:(B.v "i") ~scale:8 ~value:(B.v "i") () ]
  in
  let loop_id =
    match loop with Ast.For { loop_id; _ } -> loop_id | _ -> assert false
  in
  let prog =
    B.program "foreign_regions"
      [ B.malloc "p" (B.i 32); B.malloc "q" (B.i 16); loop ]
  in
  let probe = { (B.access b ~base:"q" ~index:(B.i 1) ~scale:8 ()) with Ast.acc_id = 9001 } in
  let plan hi =
    let plan = Plan.create ~mode_name:"manual" ~enabled:true ~use_anchor:true in
    Plan.add_loop_pre plan loop_id
      { Plan.rg_base = "p"; rg_lo = Ast.Load probe; rg_hi = hi };
    Plan.add_stmt_pre plan 9001
      { Plan.rg_base = "q"; rg_lo = Ast.Int 0; rg_hi = Ast.Int 24 };
    Plan.set_decision plan 9001 Plan.Cached;
    plan
  in
  let r = same "load in a region" Runner.Giantsan (plan (B.i 40)) prog in
  Alcotest.(check bool) "the pre-check of the region's load reported" true
    (r.reports <> []);
  let r = same "foreign name" Runner.Giantsan (plan (B.v "zzz")) prog in
  Alcotest.(check (option string)) "fails on the foreign name"
    (Some "Interp: unbound variable zzz") r.failure

let suite =
  ( "interp diff",
    [
      prop_random_programs;
      prop_spec_profiles;
      Helpers.qt "unbound variable" `Quick test_unbound_variable;
      Helpers.qt "unknown function" `Quick test_unknown_function;
      Helpers.qt "arity mismatch" `Quick test_arity_mismatch;
      Helpers.qt "call depth 200 crashes" `Quick test_call_depth;
      Helpers.qt "fuel runs out at the same op" `Quick test_fuel_same_op;
      Helpers.qt "return through cached loops flushes" `Quick
        test_return_flushes_caches;
      Helpers.qt "callee finds the caller's cache by name" `Quick
        test_callee_finds_caller_cache;
      Helpers.qt "flush order of five caches" `Quick test_flush_order;
      Helpers.qt "plan edit between runs" `Quick test_plan_edit_between_runs;
      Helpers.qt "foreign plan regions" `Quick test_foreign_plan_regions;
    ] )
