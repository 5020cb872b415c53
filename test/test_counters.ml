(* Counter algebra and the fast/slow partition invariant: Table 2 and
   Figure 10 are sums of these counters, so [add] must be a commutative
   monoid with [reset] as identity, and every region check must be settled
   by exactly one of the two paths. *)

module Counters = Giantsan_sanitizer.Counters
module Harness = Giantsan_bugs.Harness
module Runner = Giantsan_workload.Runner
module Backend = Giantsan_policy.Backend
module Difftest = Giantsan_bugs.Difftest
module Metric = Giantsan_telemetry.Metric

(* Every field the spec declares gets a value, so a field added to the
   record and the spec is drawn here with no edit to this file. *)
let gen_counters =
  let names = Metric.names Counters.spec in
  QCheck.Gen.(
    map
      (fun l ->
        let c = Counters.create () in
        List.iter2 (fun name v -> Metric.set Counters.spec name c v) names l;
        c)
      (list_repeat (List.length names) (int_bound 10_000)))

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
      Counters.to_assoc c
      = List.map
          (fun name -> (name, Metric.get Counters.spec name c))
          (Metric.names Counters.spec))

(* [reset] and [add] are written out field by field (they run on every
   fuzz-mode restore); this holds them equal to the spec-derived
   operations, so a field left out of either, or added to the record and
   the spec but not to them, fails here ([gen_counters] draws every
   field the spec declares). *)
let test_direct_ops_match_spec =
  Helpers.q "direct reset/add = Metric.reset/add over the spec"
    QCheck.(pair arb_counters arb_counters)
    (fun (a, b) ->
      let copy c =
        let d = Counters.create () in
        Metric.add Counters.spec d c;
        d
      in
      let direct = copy a and derived = copy a in
      Counters.add direct b;
      Metric.add Counters.spec derived b;
      let added = snapshot direct = snapshot derived in
      Counters.reset direct;
      Metric.reset Counters.spec derived;
      added
      && snapshot direct = snapshot derived
      && List.for_all (fun (_, v) -> v = 0) (snapshot direct))

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
      test_direct_ops_match_spec;
    ] )
