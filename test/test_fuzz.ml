(* The coverage-guided differential fuzzing subsystem: corpus format
   round-trips, mutation well-formedness, engine determinism, coverage
   growth over the pure-random baseline, the injected-misfold self-test
   (find + shrink), the regression-corpus replay, and the scenario step
   executor against the one it replaced. *)

module Scenario = Giantsan_bugs.Scenario
module Difftest = Giantsan_bugs.Difftest
module Harness = Giantsan_bugs.Harness
module Runner = Giantsan_workload.Runner
module Rng = Giantsan_util.Rng
module Folding = Giantsan_core.Folding
module Coverage = Giantsan_fuzz.Coverage
module Corpus = Giantsan_fuzz.Corpus
module Mutate = Giantsan_fuzz.Mutate
module Shrink = Giantsan_fuzz.Shrink
module Exec = Giantsan_fuzz.Exec
module Engine = Giantsan_fuzz.Engine

let regressions_dir = "corpus/regressions"

let violations =
  [
    Difftest.V_overflow; Difftest.V_underflow; Difftest.V_far_jump;
    Difftest.V_uaf; Difftest.V_double_free; Difftest.V_mid_free;
  ]

let any_scenario seed =
  if seed mod 2 = 0 then Difftest.gen_clean ~seed
  else
    Difftest.gen_buggy ~seed
      (List.nth violations (seed / 2 mod List.length violations))

(* --- coverage map ------------------------------------------------------- *)

let test_coverage_map () =
  let c = Coverage.create () in
  Alcotest.(check int) "fresh empty" 0 (Coverage.size c);
  Alcotest.(check int) "two novel" 2 (Coverage.add c [ "a"; "b" ]);
  Alcotest.(check int) "one novel, one repeat" 1 (Coverage.add c [ "a"; "c" ]);
  Alcotest.(check int) "all seen" 0 (Coverage.add c [ "a"; "b"; "c" ]);
  Alcotest.(check int) "size" 3 (Coverage.size c);
  Alcotest.(check bool) "mem" true (Coverage.mem c "b");
  Alcotest.(check int) "bucket 0" 0 (Coverage.bucket 0);
  Alcotest.(check int) "bucket 1" 1 (Coverage.bucket 1);
  Alcotest.(check int) "bucket 2,3 equal" (Coverage.bucket 2) (Coverage.bucket 3);
  Alcotest.(check bool) "bucket separates decades" true
    (Coverage.bucket 10 <> Coverage.bucket 1000)

(* --- corpus format ------------------------------------------------------ *)

let test_corpus_roundtrip =
  Helpers.q "corpus text round-trips every generated scenario"
    QCheck.small_int
    (fun seed ->
      let sc = any_scenario seed in
      match Corpus.of_string (Corpus.to_string sc) with
      | Ok back ->
        back.Scenario.sc_id = sc.Scenario.sc_id
        && back.Scenario.sc_cwe = sc.Scenario.sc_cwe
        && back.Scenario.sc_buggy = sc.Scenario.sc_buggy
        && back.Scenario.sc_steps = sc.Scenario.sc_steps
      | Error _ -> false)

let test_corpus_rejects () =
  (match Corpus.of_string "alloc 0 8 heap\nbuggy true\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a lying label");
  (match Corpus.of_string "alloc 0 8 pluto\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a bad kind");
  (match Corpus.of_string "loop 0 0 8 0 1\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a zero-step loop");
  List.iter
    (fun text ->
      match Corpus.of_string text with
      | Error e ->
        Alcotest.(check bool) (text ^ ": " ^ e) true
          (Astring_contains.contains e "cannot parse")
      | Ok _ -> Alcotest.failf "accepted %S" text)
    [
      "alloc 0 -8 heap\n";
      "alloc 0 32 heap\naccess 0 0 0\n";
      "alloc 0 32 heap\nloop 0 0 8 1 0\n";
      "null 0 -1\n";
      (* 2^62 offsets; and a step that wraps past max_int *)
      "alloc 0 8 heap\nloop 0 0 4611686018427387903 1 1\n";
      "alloc 0 8 heap\nloop 0 4611686018427387902 4611686018427387903 \
       4611686018427387903 1\n";
      Printf.sprintf "alloc 0 8 heap\nloop 0 0 %d 1 1\n"
        (Scenario.max_loop_trips + 1);
      (* offsets whose [off + width] wraps: labelled either way, these were
         a lying label or false positives on four backends *)
      "alloc 0 8 heap\nbuggy true\naccess 0 4611686018427387900 8\n";
      "alloc 0 8 heap\nbuggy false\naccess 0 4611686018427387900 8\n";
      "alloc 0 8 heap\nbuggy true\nregion 0 4611686018427387900 8\n";
      "alloc 0 8 heap\nbuggy false\nregion 0 4611686018427387900 8\n";
      "alloc 0 8 heap\nloop 0 4611686018427387900 4611686018427387903 1 8\n";
      Printf.sprintf "alloc 0 8 heap\naccess 0 %d 8\n"
        (Scenario.max_replay_offset + 1);
      Printf.sprintf "alloc 0 8 heap\nregion 0 %d 8\n"
        (-Scenario.max_replay_offset - 1);
      Printf.sprintf "null %d 1\n" (Scenario.max_replay_offset + 1);
      Printf.sprintf "alloc 0 8 heap\nloop 0 %d %d 1 1\n"
        (-Scenario.max_replay_offset - 1) (-Scenario.max_replay_offset);
    ];
  List.iter
    (fun text ->
      match Corpus.of_string text with
      | Ok sc ->
        Alcotest.(check bool) (text ^ ": buggy") true sc.Scenario.sc_buggy
      | Error e -> Alcotest.failf "rejected an offset at the cap: %s" e)
    [
      Printf.sprintf "alloc 0 8 heap\naccess 0 %d 8\n" Scenario.max_replay_offset;
      Printf.sprintf "alloc 0 8 heap\nregion 0 %d 8\n" (-Scenario.max_replay_offset);
      Printf.sprintf "null %d 1\n" (-Scenario.max_replay_offset);
    ];
  (* the ground truth itself does not wrap, whatever the parser admits *)
  Alcotest.(check bool) "an offset near max_int is out of bounds" true
    (Scenario.ground_truth
       {
         Scenario.sc_id = "wrap";
         sc_cwe = 0;
         sc_buggy = true;
         sc_steps =
           [
             Scenario.Alloc { slot = 0; size = 8; kind = Giantsan_memsim.Memobj.Heap };
             Scenario.Access { slot = 0; off = max_int - 3; width = 8 };
           ];
       });
  (match
     Corpus.of_string
       (Printf.sprintf "alloc 0 8 heap\nloop 0 0 %d 1 1\n"
          Scenario.max_loop_trips)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "rejected a loop at the cap: %s" e);
  match Corpus.of_string "# only comments\n\n" with
  | Ok sc -> Alcotest.(check int) "empty scenario" 0 (List.length sc.Scenario.sc_steps)
  | Error e -> Alcotest.failf "rejected empty corpus file: %s" e

(* --- mutation engine ---------------------------------------------------- *)

let test_mutants_always_executable =
  Helpers.q "every mutant executes (no unallocated slots, no OOM)"
    QCheck.small_int
    (fun seed ->
      let rng = Rng.create (seed + 101) in
      let pool = Array.of_list (List.init 4 (fun i -> any_scenario (seed + i))) in
      let sc = ref pool.(0) in
      let ok = ref true in
      (* a lineage of 12 successive mutations, like the fuzzer produces *)
      for _ = 1 to 12 do
        sc := Mutate.mutate rng ~pool !sc;
        (match Exec.run !sc with Ok _ -> () | Error _ -> ok := false);
        ok := !ok && List.length !sc.Scenario.sc_steps <= Mutate.max_steps
      done;
      !ok)

let test_repair_relabel =
  Helpers.q "repair keeps sc_buggy consistent with ground truth"
    QCheck.small_int
    (fun seed ->
      let rng = Rng.create (seed + 55) in
      let pool = [| any_scenario seed |] in
      let m = Mutate.mutate rng ~pool pool.(0) in
      m.Scenario.sc_buggy = Scenario.ground_truth m
      && Scenario.validate m = Ok ())

(* --- shrinker ----------------------------------------------------------- *)

let test_shrink_overflow () =
  let sc = Difftest.gen_buggy ~seed:9 Difftest.V_overflow in
  let interesting s = Harness.detected Runner.Giantsan s in
  let shrunk = Shrink.shrink ~interesting sc in
  Alcotest.(check bool) "still interesting" true (interesting shrunk);
  Alcotest.(check bool) "no longer than input" true
    (List.length shrunk.Scenario.sc_steps <= List.length sc.Scenario.sc_steps);
  Alcotest.(check bool)
    (Printf.sprintf "minimal reproducer (got %d steps)"
       (List.length shrunk.Scenario.sc_steps))
    true
    (List.length shrunk.Scenario.sc_steps <= 3)

let test_shrink_uninteresting_input () =
  let sc = Difftest.gen_clean ~seed:3 in
  let shrunk = Shrink.shrink ~interesting:(fun _ -> false) sc in
  Alcotest.(check bool) "returned unchanged" true (shrunk = sc)

(* --- engine ------------------------------------------------------------- *)

let small_config =
  { Engine.runs = 150; seed = 11; minimize = false; inject_misfold = false;
    mode = Exec.Rebuild }

let test_engine_deterministic () =
  let a = Engine.run small_config and b = Engine.run small_config in
  Alcotest.(check string) "byte-identical summaries"
    (Engine.summary_to_string a)
    (Engine.summary_to_string b)

let test_engine_invariants_hold () =
  let s = Engine.run { small_config with Engine.runs = 400; seed = 5 } in
  Alcotest.(check int) "no divergent runs on the real runtime" 0
    s.Engine.s_divergent_runs;
  Alcotest.(check (list string)) "no findings" []
    (List.map (fun f -> f.Engine.f_id) s.Engine.s_findings)

let test_engine_beats_random_baseline () =
  let s = Engine.run { small_config with Engine.runs = 500; seed = 42 } in
  Alcotest.(check bool)
    (Printf.sprintf "guided %d > baseline %d on the same budget"
       s.Engine.s_coverage s.Engine.s_baseline_coverage)
    true
    (s.Engine.s_coverage > s.Engine.s_baseline_coverage)

let test_misfold_found_and_shrunk () =
  let s =
    Engine.run
      { Engine.runs = 800; seed = 42; minimize = true; inject_misfold = true;
        mode = Exec.Rebuild }
  in
  Alcotest.(check bool) "fault plan restored" true
    (Folding.current_fault () = None);
  Alcotest.(check bool) "the planted bug is found" true
    (s.Engine.s_divergent_runs > 0);
  Alcotest.(check bool) "at least one finding recorded" true
    (s.Engine.s_findings <> []);
  List.iter
    (fun f ->
      let steps = List.length f.Engine.f_scenario.Scenario.sc_steps in
      Alcotest.(check bool)
        (Printf.sprintf "%s shrunk to <= 8 events (got %d)" f.Engine.f_id steps)
        true (steps <= 8))
    s.Engine.s_findings

(* --- regression corpus -------------------------------------------------- *)

let test_regressions_replay_green () =
  let results = Engine.replay ~dir:regressions_dir () in
  Alcotest.(check bool) "corpus is not empty" true (List.length results > 0);
  List.iter
    (fun (name, problems) ->
      Alcotest.(check (list string)) (name ^ " replays green") [] problems)
    results

let test_misfold_regressions_guard_the_bug () =
  (* the two shrunk findings checked into the corpus must actually diverge
     again if the planted bug ever comes back *)
  let guards =
    List.filter
      (fun (name, _) ->
        String.length name >= 7 && String.sub name 0 7 = "misfold")
      (Engine.replay ~dir:regressions_dir ())
  in
  Alcotest.(check int) "two misfold guards present" 2 (List.length guards);
  Folding.with_fault (Some (Folding.Overstate_last 1)) (fun () ->
      List.iter
        (fun (name, _) ->
          match Corpus.load_file (Filename.concat regressions_dir name) with
          | Error e -> Alcotest.failf "%s: %s" name e
          | Ok sc ->
            Alcotest.(check bool)
              (name ^ " diverges under the planted bug")
              true (Exec.diverges sc))
        guards)

(* --- corpus totality ------------------------------------------------------ *)

(* Random corpus text from the grammar: every step keyword with zero,
   negative and huge integers, plus junk tokens and junk lines. Loop bounds
   are mostly small but sometimes huge, and so are steps, so some loops
   would visit billions of offsets or step past max_int. Huge integers
   include offsets just inside and just past the replay cap and ones whose
   [off + width] wraps. *)
let gen_corpus_text =
  let open QCheck.Gen in
  let cap = Scenario.max_replay_offset in
  let huge =
    [
      max_int; min_int; max_int / 2; -(1 lsl 40); 1 lsl 40; 1 lsl 30;
      max_int - 3; max_int - 7; cap; cap + 1; -cap; -cap - 1;
    ]
  in
  let int_tok =
    frequency
      [
        (4, int_range (-2) 3);
        (3, int_range (-64) 256);
        (2, oneofl huge);
        (1, int);
      ]
    >|= string_of_int
  in
  let junk = oneofl [ "x"; "-"; "0x10"; "1e3"; "nan"; "8.5"; "+"; "heap" ] in
  let tok = frequency [ (30, int_tok); (1, junk) ] in
  let bound =
    frequency
      [
        (30, int_range (-64) 256 >|= string_of_int);
        (3, oneofl (max_int - 1 :: huge) >|= string_of_int);
        (1, junk);
      ]
  in
  let slot = frequency [ (30, int_range 0 1 >|= string_of_int); (1, tok) ] in
  let kind = frequency [ (30, oneofl [ "heap"; "stack"; "global" ]); (1, junk) ] in
  (* sizes and widths lean valid so most scenarios get past the parser *)
  let size = frequency [ (4, int_range 0 300 >|= string_of_int); (1, tok) ] in
  let width = frequency [ (6, oneofl [ "1"; "2"; "4"; "8"; "16" ]); (1, tok) ] in
  let alloc = map3 (Printf.sprintf "alloc %s %s %s") slot size kind in
  let line =
    frequency
      [
        (3, alloc);
        (1, map (Printf.sprintf "free %s") slot);
        (1, map2 (Printf.sprintf "free_at %s %s") slot tok);
        (4, map3 (Printf.sprintf "access %s %s %s") slot tok width);
        ( 2,
          map3
            (fun (s, f) (t, st) w -> Printf.sprintf "loop %s %s %s %s %s" s f t st w)
            (pair slot bound) (pair bound tok) width );
        (2, map3 (Printf.sprintf "region %s %s %s") slot tok tok);
        (1, map2 (Printf.sprintf "null %s %s") tok width);
        (1, map (Printf.sprintf "cwe %s") tok);
        (1, map2 (Printf.sprintf "%s %s") junk tok);
      ]
  in
  let header =
    frequencyl [ (9, []); (1, [ "buggy true" ]); (1, [ "buggy false" ]); (1, [ "buggy maybe" ]) ]
  in
  map3
    (fun h allocs steps -> String.concat "\n" (allocs @ steps @ h))
    header
    (list_size (int_range 1 3) alloc)
    (list_size (int_range 0 8) line)

(* Does [line] hold a loop the parser would otherwise accept that walks
   more than [Scenario.max_loop_trips] offsets, or steps out of the int
   range? Counted here under that step budget, with the sign of each
   step's result as the overflow test, so the library's own stepping rule
   is not trusted. *)
let oversized_loop line =
  match List.filter (( <> ) "") (String.split_on_char ' ' (String.trim line)) with
  | [ "loop"; slot; from_; to_; step; width ] -> (
    match List.map int_of_string_opt [ slot; from_; to_; step; width ] with
    | [ Some _; Some from_; Some to_; Some step; Some width ]
      when step <> 0 && width >= 1 ->
      let rec walk off n =
        (if step > 0 then off < to_ else off > to_)
        && (n >= Scenario.max_loop_trips
           || (off + step > off) <> (step > 0)
           || walk (off + step) (n + 1))
      in
      walk from_ 0
    | _ -> false)
  | _ -> false

(* Does [line] hold an access, region, null or loop the parser would
   otherwise accept with an offset beyond [Scenario.max_replay_offset]? *)
let offset_beyond_cap line =
  let beyond off = off > Scenario.max_replay_offset || off < -Scenario.max_replay_offset in
  let ints toks = List.map int_of_string_opt toks in
  match List.filter (( <> ) "") (String.split_on_char ' ' (String.trim line)) with
  | [ "access"; slot; off; width ] -> (
    match ints [ slot; off; width ] with
    | [ Some _; Some off; Some width ] -> width >= 1 && beyond off
    | _ -> false)
  | [ "region"; slot; off; len ] -> (
    match ints [ slot; off; len ] with
    | [ Some _; Some off; Some _ ] -> beyond off
    | _ -> false)
  | [ "null"; off; width ] -> (
    match ints [ off; width ] with
    | [ Some off; Some width ] -> width >= 1 && beyond off
    | _ -> false)
  | [ "loop"; slot; from_; to_; step; width ] -> (
    match ints [ slot; from_; to_; step; width ] with
    | [ Some _; Some from_; Some to_; Some step; Some width ] ->
      step <> 0 && width >= 1 && (beyond from_ || beyond to_)
    | _ -> false)
  | _ -> false

let test_corpus_total =
  (* one long-lived persistent context, as replay --mode persistent uses *)
  let ctx = lazy (Exec.make_ctx ()) in
  Helpers.q "corpus parse and replay never raise on any text"
    (QCheck.make ~print:Fun.id gen_corpus_text)
    (fun text ->
      let lines = String.split_on_char '\n' text in
      let oversized = List.exists oversized_loop lines in
      let beyond_cap = List.exists offset_beyond_cap lines in
      match Corpus.of_string text with
      | exception e ->
        QCheck.Test.fail_reportf "of_string raised %s" (Printexc.to_string e)
      | Error _ -> true
      | Ok _ when oversized ->
        QCheck.Test.fail_report "accepted an oversized or wrapping loop"
      | Ok _ when beyond_cap ->
        QCheck.Test.fail_report "accepted an offset beyond the replay cap"
      | Ok sc ->
        (* the replay path, rebuild and persistent, on all five backends *)
        List.iter
          (fun ctx ->
            match Exec.run ?ctx sc with
            | Ok _ | Error _ -> ()
            | exception e ->
              QCheck.Test.fail_reportf "Exec.run raised %s" (Printexc.to_string e))
          [ None; Some (Lazy.force ctx) ];
        true)

(* --- the step executor against the one it replaced --------------------- *)

module Ref = Scenario_reference
module Backend = Giantsan_policy.Backend
module San = Giantsan_sanitizer.Sanitizer
module Report = Giantsan_sanitizer.Report
module Counters = Giantsan_sanitizer.Counters
module Heap = Giantsan_memsim.Heap

(* What one executor leaves behind on a fresh sanitizer: the reports in
   order (or the exception it raised), then the sanitizer's state. *)
type exec_run = {
  outcome : (string list, string) result;
  counters : (string * int) list;
  loads : int;
  stores : int;
  live_bytes : int;
  quarantine : int list;
}

let exec_heap =
  { Heap.arena_size = 32 * 1024; redzone = 16; quarantine_budget = 16 * 1024 }

let exec_with run id sc =
  let san = Backend.create id exec_heap in
  let outcome =
    match run san sc with
    | reports ->
      Ok
        (List.map
           (fun (r : Report.t) ->
             Printf.sprintf "%s@%d+%d by %s" (Report.kind_name r.kind) r.addr
               r.size r.detected_by)
           reports)
    | exception Failure m -> Error ("Failure " ^ m)
    | exception e -> Error (Printexc.to_string e)
  in
  {
    outcome;
    counters = Counters.to_assoc san.San.counters;
    loads = san.San.shadow_loads ();
    stores = san.San.shadow_stores ();
    live_bytes = Heap.live_bytes san.San.heap;
    quarantine = Heap.quarantine_ids san.San.heap;
  }

(* The names of the parts where two runs differ. *)
let exec_diff a b =
  List.filter_map
    (fun (name, same) -> if same then None else Some name)
    [
      ("outcome", a.outcome = b.outcome);
      ("counters", a.counters = b.counters);
      ("shadow loads", a.loads = b.loads);
      ("shadow stores", a.stores = b.stores);
      ("live bytes", a.live_bytes = b.live_bytes);
      ("quarantine ids", a.quarantine = b.quarantine);
    ]

(* How many offsets the reference walk visits, or [None] past [cap]. *)
let ref_trips ~cap ~from_ ~to_ ~step =
  let n = ref 0 in
  match
    Ref.iter_loop ~from_ ~to_ ~step (fun _ ->
        incr n;
        if !n > cap then raise Exit)
  with
  | () -> Some !n
  | exception Exit -> None

(* Loop bounds at the int edges: near max_int and min_int, large steps of
   either sign, empty and reversed ranges, and the object's own range. *)
let edge_loop rng =
  let r = Rng.int rng 64 in
  let edge () =
    Rng.pick rng
      [| min_int; min_int + 1; min_int + r; -r; 0; r; 64 + r; max_int - r;
         max_int - 1; max_int |]
  in
  let k = 1 + Rng.int rng 16 in
  let step =
    Rng.pick rng
      [| k; -k; max_int; -max_int; min_int; min_int + 1; max_int / 2;
         -(max_int / 2); 1 lsl 61; -(1 lsl 61); (max_int / 3) + k;
         -(max_int / 3) - k |]
  in
  (edge (), edge (), step)

(* Checks the closed-form count and bound against the reference walk on
   one loop, then returns a loop short enough to execute: a walk past 512
   offsets takes the largest step of its sign instead (at most 3). *)
let checked_edge_loop rng =
  let from_, to_, step = edge_loop rng in
  let trips = Scenario.loop_trips ~from_ ~to_ ~step in
  (match ref_trips ~cap:4096 ~from_ ~to_ ~step with
  | Some n when n <> trips ->
    QCheck.Test.fail_reportf "loop_trips %d %d %d = %d, walk visits %d" from_
      to_ step trips n
  | None when trips <= 4096 ->
    QCheck.Test.fail_reportf "loop_trips %d %d %d = %d, walk visits more"
      from_ to_ step trips
  | _ -> ());
  if
    Scenario.loop_bounded ~from_ ~to_ ~step
    <> Ref.loop_bounded ~from_ ~to_ ~step
  then QCheck.Test.fail_reportf "loop_bounded %d %d %d differs" from_ to_ step;
  let step =
    match ref_trips ~cap:512 ~from_ ~to_ ~step with
    | Some _ -> step
    | None -> if step > 0 then max_int else min_int
  in
  Scenario.Access_loop
    { slot = 0; from_; to_; step; width = Rng.pick rng [| 1; 4; 8 |] }

let juliet =
  lazy
    (Array.of_list
       (List.concat_map
          (fun c ->
            Giantsan_bugs.Juliet.buggy_cases c
            @ Giantsan_bugs.Juliet.clean_cases c)
          Giantsan_bugs.Juliet.cwe_ids))

let cves =
  Array.of_list
    (List.map (fun c -> c.Giantsan_bugs.Cves.cve_scenario) Giantsan_bugs.Cves.all)

(* One scenario of each kind for [seed]: Difftest clean and buggy (the
   six violations in turn), a Juliet and a CVE case, a fuzz mutant, loops
   at the int edges, and a scenario that names an unallocated slot. *)
let executor_cases seed =
  let rng = Rng.create (seed + 7) in
  let clean = Difftest.gen_clean ~seed in
  let buggy =
    Difftest.gen_buggy ~seed (List.nth violations (seed mod List.length violations))
  in
  let juliet = Lazy.force juliet in
  let mutant =
    let pool = [| clean; buggy |] in
    let sc = ref (Rng.pick rng pool) in
    for _ = 0 to Rng.int rng 3 do
      sc := Mutate.mutate rng ~pool !sc
    done;
    !sc
  in
  let edge =
    {
      Scenario.sc_id = "edge";
      sc_cwe = 0;
      sc_buggy = true;
      sc_steps =
        Scenario.Alloc { slot = 0; size = 64; kind = Giantsan_memsim.Memobj.Heap }
        :: List.init (1 + Rng.int rng 3) (fun _ -> checked_edge_loop rng);
    }
  in
  let unallocated =
    let bad =
      Rng.pick rng
        Scenario.
          [|
            Free_slot 99;
            Free_at { slot = 99; delta = 0 };
            Access { slot = 99; off = 0; width = 1 };
            Access_loop { slot = 99; from_ = 0; to_ = 8; step = 1; width = 1 };
            Region { slot = 99; off = 0; len = 0 };
            Region { slot = 99; off = 0; len = 8 };
          |]
    in
    let steps = clean.Scenario.sc_steps in
    let at = Rng.int rng (List.length steps + 1) in
    {
      clean with
      sc_steps =
        List.filteri (fun i _ -> i < at) steps
        @ (bad :: List.filteri (fun i _ -> i >= at) steps);
    }
  in
  [
    clean; buggy; juliet.(seed mod Array.length juliet);
    cves.(seed mod Array.length cves); mutant; edge; unallocated;
  ]

let test_executor_matches_reference =
  Helpers.q "step executor = the reference executor on every backend"
    QCheck.(int_bound 100_000)
    (fun seed ->
      List.iter
        (fun sc ->
          List.iter
            (fun id ->
              let got = exec_with Scenario.run_reports id sc
              and want = exec_with Ref.run_reports id sc in
              if got <> want then
                QCheck.Test.fail_reportf "%s on %s: %s differ" sc.Scenario.sc_id
                  (Backend.name id) (String.concat ", " (exec_diff got want)))
            Backend.all)
        (executor_cases seed);
      true)

let suite =
  ( "fuzz",
    [
      Helpers.qt "coverage map basics" `Quick test_coverage_map;
      test_corpus_roundtrip;
      Helpers.qt "corpus rejects malformed input" `Quick test_corpus_rejects;
      test_mutants_always_executable;
      test_repair_relabel;
      Helpers.qt "shrinker: seeded overflow to minimal" `Quick
        test_shrink_overflow;
      Helpers.qt "shrinker: uninteresting input unchanged" `Quick
        test_shrink_uninteresting_input;
      Helpers.qt "engine: deterministic summaries" `Quick
        test_engine_deterministic;
      Helpers.qt "engine: invariants hold on the real runtime" `Slow
        test_engine_invariants_hold;
      Helpers.qt "engine: guided coverage beats random baseline" `Slow
        test_engine_beats_random_baseline;
      Helpers.qt "engine: planted misfold found and shrunk" `Slow
        test_misfold_found_and_shrunk;
      Helpers.qt "regression corpus replays green" `Quick
        test_regressions_replay_green;
      Helpers.qt "misfold regressions guard the bug class" `Quick
        test_misfold_regressions_guard_the_bug;
      test_corpus_total;
      test_executor_matches_reference;
    ] )
