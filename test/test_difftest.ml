(* Differential fuzzing across sanitizers: thousands of random heaps. *)

module Difftest = Giantsan_bugs.Difftest
module Scenario = Giantsan_bugs.Scenario
module Harness = Giantsan_bugs.Harness
module Runner = Giantsan_workload.Runner

let prop name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:400 arb f)

let test_clean_validates =
  prop "clean scenarios really are clean" QCheck.small_int (fun seed ->
      Scenario.validate (Difftest.gen_clean ~seed) = Ok ())

let test_no_false_positives =
  prop "no tool flags a clean scenario" QCheck.small_int (fun seed ->
      let sc = Difftest.gen_clean ~seed in
      List.for_all (fun tool -> not (Harness.detected tool sc)) Harness.all_tools)

let near_violations =
  [
    Difftest.V_overflow; Difftest.V_underflow; Difftest.V_uaf;
    Difftest.V_double_free; Difftest.V_mid_free;
  ]

let test_buggy_validates =
  prop "seeded violations really are violations"
    QCheck.(pair small_int (int_range 0 4))
    (fun (seed, k) ->
      let sc = Difftest.gen_buggy ~seed (List.nth near_violations k) in
      Scenario.validate sc = Ok ())

let test_asan_family_completeness =
  (* every near-object violation is detected by the whole ASan family *)
  prop "ASan family detects every seeded violation"
    QCheck.(pair small_int (int_range 0 4))
    (fun (seed, k) ->
      let sc = Difftest.gen_buggy ~seed (List.nth near_violations k) in
      List.for_all
        (fun tool -> Harness.detected tool sc)
        [ Runner.Giantsan; Runner.Asan; Runner.Asanmm ])

let test_giantsan_dominates_asan =
  (* anything ASan flags, GiantSan flags too (on identical scenarios) *)
  prop "GiantSan verdicts dominate ASan's"
    QCheck.(pair small_int bool)
    (fun (seed, make_buggy) ->
      let sc =
        if make_buggy then
          Difftest.gen_buggy ~seed
            (List.nth near_violations (seed mod List.length near_violations))
        else Difftest.gen_clean ~seed
      in
      let asan = Harness.detected Runner.Asan sc in
      let gs = Harness.detected Runner.Giantsan sc in
      (not asan) || gs)

let test_far_jump_split =
  (* the Table 5 mechanism, fuzzed: far jumps split GiantSan from ASan *)
  prop "far jumps: GiantSan catches, ASan(rz16) misses" QCheck.small_int
    (fun seed ->
      let sc = Difftest.gen_buggy ~seed Difftest.V_far_jump in
      Harness.detected ~redzone:16 Runner.Giantsan sc
      && not (Harness.detected ~redzone:16 Runner.Asan sc))

let test_lfp_never_beats_giantsan =
  prop "LFP never detects what GiantSan misses"
    QCheck.(pair small_int (int_range 0 4))
    (fun (seed, k) ->
      let sc = Difftest.gen_buggy ~seed (List.nth near_violations k) in
      let lfp = Harness.detected Runner.Lfp sc in
      let gs = Harness.detected Runner.Giantsan sc in
      (not lfp) || gs)

let suite =
  ( "difftest",
    [
      test_clean_validates;
      test_no_false_positives;
      test_buggy_validates;
      test_asan_family_completeness;
      test_giantsan_dominates_asan;
      test_far_jump_split;
      test_lfp_never_beats_giantsan;
    ] )
