(* Counter algebra and the fast/slow partition invariant: Table 2 and
   Figure 10 are sums of these counters, so [add] must be a commutative
   monoid with [reset] as identity, and every region check must be settled
   by exactly one of the two paths. *)

module Counters = Giantsan_sanitizer.Counters
module Harness = Giantsan_bugs.Harness
module Runner = Giantsan_workload.Runner
module Backend = Giantsan_policy.Backend
module Difftest = Giantsan_bugs.Difftest

let gen_counters =
  QCheck.Gen.(
    map
      (fun l ->
        let c = Counters.create () in
        let v i = List.nth l i in
        c.Counters.mallocs <- v 0;
        c.Counters.frees <- v 1;
        c.Counters.poison_segments <- v 2;
        c.Counters.instr_checks <- v 3;
        c.Counters.region_checks <- v 4;
        c.Counters.fast_checks <- v 5;
        c.Counters.slow_checks <- v 6;
        c.Counters.cache_hits <- v 7;
        c.Counters.cache_updates <- v 8;
        c.Counters.underflow_checks <- v 9;
        c.Counters.bounds_checks <- v 10;
        c.Counters.auth_checks <- v 11;
        c.Counters.errors <- v 12;
        c)
      (list_repeat 13 (int_bound 10_000)))

let arb_counters = QCheck.make gen_counters

let snapshot = Counters.to_assoc

let plus a b =
  let acc = Counters.create () in
  Counters.add acc a;
  Counters.add acc b;
  acc

let test_add_commutative =
  Helpers.q "add is commutative"
    QCheck.(pair arb_counters arb_counters)
    (fun (a, b) -> snapshot (plus a b) = snapshot (plus b a))

let test_add_associative =
  Helpers.q "add is associative"
    QCheck.(triple arb_counters arb_counters arb_counters)
    (fun (a, b, c) ->
      snapshot (plus (plus a b) c) = snapshot (plus a (plus b c)))

let test_reset_is_identity =
  Helpers.q "reset yields the identity of add" arb_counters (fun a ->
      let zero = Counters.create () in
      Counters.reset zero;
      snapshot (plus a zero) = snapshot a
      && snapshot (plus zero a) = snapshot a
      && Counters.total_checks zero = 0)

let test_add_does_not_mutate_rhs =
  Helpers.q "add leaves its argument untouched"
    QCheck.(pair arb_counters arb_counters)
    (fun (a, b) ->
      let before = snapshot b in
      let acc = Counters.create () in
      Counters.add acc a;
      Counters.add acc b;
      snapshot b = before)

(* [total_checks] counts each check event once: instruction checks, region
   checks (fast/slow only partition those, so they must NOT be added on
   top), cache consultations, bound-table checks and pointer
   authentications. Derived through the metric spec, so a new field can't
   silently join or leave the sum. *)
let test_total_checks_definition =
  Helpers.q "total_checks sums exactly the six check counters" arb_counters
    (fun c ->
      let a = Counters.to_assoc c in
      let v k = List.assoc k a in
      Counters.total_checks c
      = v "instr_checks" + v "region_checks" + v "cache_hits"
        + v "cache_updates" + v "bounds_checks" + v "auth_checks")

let test_spec_matches_assoc =
  Helpers.q "the metric spec and to_assoc agree field by field" arb_counters
    (fun c ->
      let module Metric = Giantsan_telemetry.Metric in
      Counters.to_assoc c
      = List.map
          (fun name -> (name, Metric.get Counters.spec name c))
          (Metric.names Counters.spec))

let violations =
  [
    Difftest.V_overflow; Difftest.V_underflow; Difftest.V_far_jump;
    Difftest.V_uaf; Difftest.V_double_free; Difftest.V_mid_free;
  ]

(* After any workload: GiantSan's fast and slow paths partition its region
   checks; ASan and ASan-- do monolithic region checks (no path split); LFP
   checks pointer arithmetic, never regions. *)
let test_fast_slow_partition =
  Helpers.q "fast_checks + slow_checks = region_checks after any workload"
    QCheck.(pair small_int bool)
    (fun (seed, buggy) ->
      let sc =
        if buggy then
          Difftest.gen_buggy ~seed
            (List.nth violations (seed mod List.length violations))
        else Difftest.gen_clean ~seed
      in
      List.for_all
        (fun tool ->
          let san = Harness.make_sanitizer tool in
          let _ = Giantsan_bugs.Scenario.run san sc in
          let c = san.Giantsan_sanitizer.Sanitizer.counters in
          match Runner.backend tool with
          | Backend.Giantsan ->
            c.Counters.fast_checks + c.Counters.slow_checks
            = c.Counters.region_checks
          | Backend.Asan ->
            c.Counters.fast_checks = 0 && c.Counters.slow_checks = 0
          | Backend.Lfp | Backend.Native ->
            c.Counters.region_checks = 0
            && c.Counters.fast_checks = 0
            && c.Counters.slow_checks = 0
          | Backend.Pac ->
            (* PAC authenticates; it never walks shadow paths *)
            c.Counters.fast_checks = 0 && c.Counters.slow_checks = 0)
        Harness.all_tools)

let suite =
  ( "counters",
    [
      test_add_commutative;
      test_add_associative;
      test_reset_is_identity;
      test_add_does_not_mutate_rhs;
      test_total_checks_definition;
      test_spec_matches_assoc;
      test_fast_slow_partition;
    ] )
