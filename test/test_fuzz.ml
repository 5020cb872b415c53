(* The coverage-guided differential fuzzing subsystem: corpus format
   round-trips, mutation well-formedness, engine determinism, coverage
   growth over the pure-random baseline, the injected-misfold self-test
   (find + shrink), and the regression-corpus replay. *)

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
    ];
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
   stay small (the step is drawn from the full pool): a loop's trip count is
   (to - from) / step, and a billion-offset loop is a hang, not the
   exception this property looks for. *)
let gen_corpus_text =
  let open QCheck.Gen in
  let huge = [ max_int; min_int; max_int / 2; -(1 lsl 40); 1 lsl 40; 1 lsl 30 ] in
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
  let bound = frequency [ (30, int_range (-64) 256 >|= string_of_int); (1, junk) ] in
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

let test_corpus_total =
  (* one long-lived persistent context, as replay --mode persistent uses *)
  let ctx = lazy (Exec.make_ctx ()) in
  Helpers.q "corpus parse and replay never raise on any text"
    (QCheck.make ~print:Fun.id gen_corpus_text)
    (fun text ->
      match Corpus.of_string text with
      | exception e ->
        QCheck.Test.fail_reportf "of_string raised %s" (Printexc.to_string e)
      | Error _ -> true
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
    ] )
