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

(* {1 Fuel-exact runs} *)

module Rng = Giantsan_util.Rng

(* Statements that read names nothing binds, one per specialised shape:
   [u] as a base or operand, [z] as an index or the other operand, [y] as
   a stored value. Fuel running out at each of the statement's ticks, and
   which name fails first, tell where a node ticks and in what order it
   reads its operands. *)
let probes =
  B.
    [
      (fun _ -> assign "k" (v "u" + i 1));
      (fun _ -> assign "k" (v "s" + (v "u" + i 1)));
      (fun _ -> assign "k" ((v "s" * i 2) + (v "u" - i 1)));
      (fun _ -> assign "k" ((v "s" + (v "u" * i 2)) * i 3));
      (fun _ -> assign "k" ((v "u" + i 1) + (v "s" * i 2)));
      (fun _ -> assign "k" (i 3 - v "u"));
      (fun _ -> assign "k" ((v "s" + i 1) * v "u"));
      (fun _ -> assign "k" (v "z" * v "u"));
      (fun _ -> assign "k" (v "u"));
      (fun _ -> assign "k" (v "u" < i 3));
      (fun _ -> assign "k" (v "s" / i 0));
      (fun b -> assign "k" ((v "s" + i 1) + load b ~base:"u" ~index:(v "z") ~scale:8 ()));
      (fun b -> assign "k" (load b ~base:"u" ~index:(v "z") ~scale:8 ()));
      (fun b -> assign "k" (load b ~base:"u" ~index:(v "z") ~scale:8 () * i 2));
      (fun b -> assign "k" (load b ~base:"u" ~index:(v "z" + i 1) ~scale:8 () * i 2));
      (fun b -> assign "k" (load b ~base:"a" ~index:(v "u") ~scale:8 () * i 2));
      (fun b -> store b ~base:"u" ~index:(v "z") ~scale:8 ~value:(v "y") ());
      (fun b -> store b ~base:"u" ~index:(v "z") ~scale:8 ~value:(v "s") ());
      (fun b -> store b ~base:"u" ~index:(v "z" + i 1) ~scale:8 ~value:(v "s") ());
      (fun b -> store b ~base:"u" ~index:(v "z") ~scale:8 ~value:(v "s" + i 1) ());
      (fun b -> store b ~base:"u" ~index:(i 2) ~scale:8 ~value:(v "s" + i 1) ());
      (fun b -> while_ b ~cond:(v "u" < i 3) []);
      (fun _ -> if_ (v "z" <= v "u") [] []);
      (fun _ -> if_ (v "s" + i 1 < v "u") [] []);
      (fun b -> for_ b ~idx:"k" ~lo:(i 0) ~hi:(v "u") []);
      (fun _ -> call ~dst:"k" "helper" [ v "u" ]);
      (fun b -> memset b ~dst:"u" ~doff:(v "z") ~len:(i 8) ~value:(i 1));
      (fun b -> memcpy b ~dst:"a" ~doff:(i 0) ~src:"u" ~soff:(v "z") ~len:(i 8));
      (fun _ -> free (v "u"));
    ]

(* A small program over two 64-byte arrays and a helper function, drawn so
   that every shape the compiler specialises appears: arithmetic and
   comparisons over variables and constants, accesses with a variable base
   and a variable, constant or computed index, assignments of a sum or a
   load, stores of a variable or a computed value, loops, calls, returns
   (some from inside a loop) and allocas. Some divisors are zero, so a run
   may crash at any arithmetic node. A [probe], if any, goes at a random
   point of the main body, alone or in a loop. *)
let fuel_program seed probe =
  let rng = Rng.create (seed + 4242) in
  let b = B.create () in
  let pick l = List.nth l (Rng.int rng (List.length l)) in
  let const () = B.i (Rng.int_in rng (-1) 5) in
  let access_index vars =
    match Rng.int rng 3 with
    | 0 -> B.v (pick vars)
    | 1 -> const ()
    | _ -> B.(v (pick vars) + i (Rng.int rng 3))
  in
  (* [vars] are the variables of the scope, [arrs] its arrays *)
  let rec expr vars arrs depth =
    match Rng.int rng (if depth > 1 then 3 else 9) with
    | 0 -> const ()
    | 1 -> B.v (pick vars)
    | 2 -> B.(v (pick vars) + i (Rng.int_in rng 1 3))
    | 3 ->
      let op = pick Ast.[ Add; Sub; Mul; Div; Rem ] in
      Ast.Bin (op, expr vars arrs (depth + 1), expr vars arrs (depth + 1))
    | 4 ->
      let op = pick Ast.[ Lt; Le; Gt; Ge; Eq; Ne ] in
      Ast.Cmp (op, expr vars arrs (depth + 1), expr vars arrs (depth + 1))
    | 5 ->
      let a = expr vars arrs (depth + 1) in
      B.(a + load b ~base:(pick arrs) ~index:(v (pick vars)) ~scale:8 ())
    | 6 -> B.(i 3 - v (pick vars))
    | _ -> B.load b ~base:(pick arrs) ~index:(access_index vars) ~scale:8 ()
  in
  let rec stmts vars arrs ~ret depth budget =
    if budget <= 0 then []
    else
      stmt vars arrs ~ret depth budget :: stmts vars arrs ~ret depth (budget - 1)
  and stmt vars arrs ~ret depth budget =
    let var () = pick vars and arr () = pick arrs in
    let dst = pick vars in
    let e () = expr vars arrs 0 in
    let nested () = stmts vars arrs ~ret (depth + 1) (budget / 2) in
    match Rng.int rng (if depth > 1 then 8 else 13) with
    | 0 -> B.assign dst (e ())
    | 1 -> B.assign dst B.(v (var ()) + i (Rng.int_in rng 1 3))
    | 2 -> B.assign dst B.(v (var ()) + e ())
    | 3 -> B.assign dst (B.load b ~base:(arr ()) ~index:(B.v (var ())) ~scale:8 ())
    | 4 ->
      let value = if Rng.bool rng then B.v (var ()) else e () in
      B.store b ~base:(arr ()) ~index:(access_index vars) ~scale:8 ~value ()
    | 5 ->
      B.memset b ~dst:(arr ()) ~doff:(B.i (8 * Rng.int rng 4))
        ~len:(B.i (8 * Rng.int rng 5)) ~value:(const ())
    | 6 ->
      B.memcpy b ~dst:(arr ()) ~doff:(B.i 0) ~src:(arr ()) ~soff:(B.i 8)
        ~len:(B.i (8 * Rng.int rng 4))
    | 7 -> if ret && Rng.int rng 3 = 0 then B.return_ (Some (e ())) else B.assign dst (e ())
    | 8 ->
      B.for_ b ~idx:(pick vars) ~lo:(const ()) ~hi:(B.i (Rng.int_in rng 0 4)) (nested ())
    | 9 ->
      let w = Printf.sprintf "w%d" depth in
      B.while_ b
        ~cond:B.(v w < i (Rng.int_in rng 0 4))
        (nested () @ [ B.assign w B.(v w + i 1) ])
    | 10 -> B.if_ (e ()) (nested ()) (nested ())
    | 11 -> B.call ~dst "helper" [ e () ]
    | _ -> if Rng.int rng 4 = 0 then B.free (B.v (arr ())) else B.assign dst (e ())
  in
  let helper =
    B.func "helper" ~params:[ "m" ]
      ([ B.alloca "hbuf" (B.i 32); B.assign "w0" (B.i 0); B.assign "w1" (B.i 0) ]
      @ stmts [ "m" ] [ "hbuf" ] ~ret:true 0 (Rng.int_in rng 1 4)
      @ [ B.return_ (Some (B.v "m")) ])
  in
  let vars = [ "i"; "s"; "k" ] and arrs = [ "a"; "c" ] in
  let body = stmts vars arrs ~ret:false 0 (Rng.int_in rng 4 12) in
  let body =
    match probe with
    | None -> body
    | Some probe ->
      let probe = probe b in
      let probe =
        if Rng.bool rng then probe
        else
          B.for_ b ~idx:"w1" ~lo:(B.i 0) ~hi:(B.i 2)
            [ B.assign "k" B.(v "k" + i 1); probe ]
      in
      let at = Rng.int rng (List.length body + 1) in
      List.filteri (fun j _ -> j < at) body
      @ (probe :: List.filteri (fun j _ -> j >= at) body)
  in
  B.program ~funcs:[ helper ] (Printf.sprintf "fuel_%d" seed)
    ([
       B.malloc "a" (B.i 64);
       B.malloc "c" (B.i 64);
       B.assign "i" (B.i 1);
       B.assign "s" (B.i 2);
       B.assign "k" (B.i 0);
       B.assign "w0" (B.i 0);
       B.assign "w1" (B.i 0);
     ]
    @ body)

let fuel_heap =
  { Memsim.Heap.arena_size = 1 lsl 12; redzone = 16; quarantine_budget = 256 }

(* Both interpreters at every fuel from 0 up to the first that lets the
   run end without running out: the same op, flags, reports, counters,
   events and variables at every point a run can stop, or the same
   failure. Case [k] of a run carries probe [k] (the cases cycle through
   every probe, then one with none), so every shape is probed on each
   run. *)
let prop_fuel_exact =
  let cases = List.map Option.some probes @ [ None ] in
  let case = ref 0 in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:(3 * List.length cases)
       ~name:"small programs: compiled = tree walk at every fuel"
       QCheck.small_int (fun seed ->
         let probe = List.nth cases (!case mod List.length cases) in
         incr case;
         let prog = fuel_program seed probe in
         List.iter
           (fun config ->
             let plan = Instrument.plan (Runner.instrument_mode config) prog in
             let what = Printf.sprintf "fuel seed %d" seed in
             let rec from fuel =
               let r = same ~heap:fuel_heap ~fuel what config plan prog in
               match r.flags with
               | _, _, true when fuel < 100_000 -> from (fuel + 1)
               | _ -> ()
             in
             from 0)
           [ Runner.Native; Giantsan; Asan ];
         true))

(* {1 Cache lookup at its boundaries} *)

(* A cached load in a plan region, run at a store's site inside a loop
   that caches [p] and [late] ([late] is unbound at loop entry, so its
   cache slot holds no name). The load's base is a name the program never
   mentions (no interned id), or one only a callee binds: either way the
   run fails on the name before any cache is looked up. *)
let test_cached_foreign_base () =
  let b = B.create () in
  let loop =
    B.for_ b ~idx:"i" ~lo:(B.i 0) ~hi:(B.i 2)
      [
        B.store b ~base:"p" ~index:(B.v "i") ~scale:8 ~value:(B.v "i") ();
        B.malloc "late" (B.i 8);
      ]
  in
  let loop_id, store_id =
    match loop with
    | Ast.For { loop_id; body = Ast.Store (acc, _) :: _; _ } -> (loop_id, acc.Ast.acc_id)
    | _ -> assert false
  in
  let f = B.func "other" ~params:[ "only_here" ] [ B.return_ (Some (B.v "only_here")) ] in
  let prog =
    B.program ~funcs:[ f ] "cached_foreign_base"
      [ B.malloc "p" (B.i 32); loop; B.call ~dst:"r" "other" [ B.i 1 ] ]
  in
  List.iter
    (fun name ->
      let probe = { (B.access b ~base:name ~index:(B.i 0) ~scale:8 ()) with Ast.acc_id = 9002 } in
      let plan = Plan.create ~mode_name:"manual" ~enabled:true ~use_anchor:true in
      Plan.add_loop_cache plan loop_id "p";
      Plan.add_loop_cache plan loop_id "late";
      Plan.set_decision plan store_id Plan.Cached;
      Plan.set_decision plan 9002 Plan.Cached;
      Plan.add_stmt_pre plan store_id
        { Plan.rg_base = "p"; rg_lo = Ast.Load probe; rg_hi = Ast.Int 16 };
      let r = same ("cached base " ^ name) Runner.Giantsan plan prog in
      Alcotest.(check (option string)) ("fails on " ^ name)
        (Some ("Interp: unbound variable " ^ name)) r.failure)
    [ "ghost"; "only_here" ]

(* The caller caches its [p] around a loop that calls [first q]; the
   callee caches its own [p] (the caller's [q], 8 bytes) and leaves its
   loop by a [Return]. The caller's next access through [p] must hit the
   caller's cache: the callee's, still stacked, would judge it against
   [q] and report an overflow. *)
let test_return_pops_callee_cache () =
  let b = B.create () in
  let inner = B.access b ~base:"p" ~index:(B.v "j") ~scale:8 () in
  let callee_loop =
    B.while_ b
      ~cond:B.(v "j" < i 4)
      [ B.assign "t" (Ast.Load inner); B.return_ (Some (B.v "t")) ]
  in
  let f = B.func "first" ~params:[ "p" ] [ B.assign "j" (B.i 0); callee_loop ] in
  let before = B.access b ~base:"p" ~index:(B.v "k") ~scale:8 () in
  let after = B.access b ~base:"p" ~index:B.(v "k" + i 4) ~scale:8 () in
  let caller_loop =
    B.while_ b
      ~cond:B.(v "k" < i 3)
      [
        B.assign "s" (Ast.Load before);
        B.call ~dst:"r" "first" [ B.v "q" ];
        B.assign "u" (Ast.Load after);
        B.assign "k" B.(v "k" + i 1);
      ]
  in
  let loop_id = function Ast.While { loop_id; _ } -> loop_id | _ -> assert false in
  let prog =
    B.program ~funcs:[ f ] "return_pops_cache"
      [ B.malloc "p" (B.i 64); B.malloc "q" (B.i 8); B.assign "k" (B.i 0); caller_loop ]
  in
  let plan = Plan.create ~mode_name:"manual" ~enabled:true ~use_anchor:true in
  List.iter
    (fun (acc : Ast.access) -> Plan.set_decision plan acc.Ast.acc_id Plan.Cached)
    [ inner; before; after ];
  Plan.add_loop_cache plan (loop_id caller_loop) "p";
  Plan.add_loop_cache plan (loop_id callee_loop) "p";
  let r = same "return pops the callee's cache" Runner.Giantsan plan prog in
  Alcotest.(check int) "every access went through a cache" 9
    (Option.get r.stats).Interp.x_cached;
  Alcotest.(check (list string)) "no report" [] r.reports

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
      prop_fuel_exact;
      Helpers.qt "cached load on a foreign base fails first" `Quick
        test_cached_foreign_base;
      Helpers.qt "return pops the callee's cache" `Quick
        test_return_pops_callee_cache;
    ] )
