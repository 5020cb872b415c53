(* The policy engine: spec grammar, scoring/decision pins against the
   calibrated overhead table, budgeted per-tenant assignment, the
   downshift ladder — and the acceptance test: a service run whose
   breached tenant demonstrably downshifts instead of quarantining. *)

module Backend = Giantsan_policy.Backend
module Policy = Giantsan_policy.Policy
module Loop = Giantsan_service.Loop
module Tenant = Giantsan_service.Tenant
module Slo = Giantsan_service.Slo
module Runner = Giantsan_workload.Runner
module Harness = Giantsan_bugs.Harness
module San = Giantsan_sanitizer.Sanitizer

(* ------------------------------------------------------------------ *)
(* Grammar                                                             *)
(* ------------------------------------------------------------------ *)

let test_parse_round_trip () =
  let s = "budget=1.5,prefer=oob:3;uaf:2,fallback=native" in
  match Policy.parse s with
  | Error e -> Alcotest.fail e
  | Ok spec ->
    Alcotest.(check (float 1e-9)) "budget" 1.5 spec.Policy.budget;
    Alcotest.(check string) "canonical render re-parses to itself"
      (Policy.to_string spec)
      (match Policy.parse (Policy.to_string spec) with
      | Ok spec' -> Policy.to_string spec'
      | Error e -> e);
    (* prefer is a full re-ranking: unnamed classes weigh 0 *)
    Alcotest.(check int) "unnamed class weighs 0" 0
      (List.assoc Backend.Double_free spec.Policy.weights);
    Alcotest.(check int) "named class keeps its weight" 3
      (List.assoc Backend.Oob spec.Policy.weights)

let expect_error name input fragment =
  match Policy.parse input with
  | Ok _ -> Alcotest.fail (name ^ ": accepted")
  | Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: error %S names the problem" name e)
      true
      (Helpers.contains e fragment)

let test_parse_errors () =
  expect_error "empty" "" "empty";
  expect_error "sub-native budget" "budget=0.5" "below 1.0";
  expect_error "bad number" "budget=fast" "bad number";
  expect_error "unknown key" "speed=11" "unknown policy key";
  expect_error "unknown class" "prefer=heap:1" "unknown detection class";
  expect_error "duplicate class" "prefer=oob:1;oob:2" "named twice";
  expect_error "bad weight" "prefer=oob:-1" "bad weight";
  expect_error "unknown fallback" "fallback=valgrind" "unknown backend";
  expect_error "not key=value" "budget" "not key=value"

(* ------------------------------------------------------------------ *)
(* Scoring and decisions (pinned against the calibrated tables)        *)
(* ------------------------------------------------------------------ *)

let test_score_pins () =
  let d = Policy.default in
  (* weight 1 everywhere: score = sum of detection levels *)
  Alcotest.(check int) "pac: full on all four classes" 8
    (Policy.score d Backend.Pac);
  Alcotest.(check int) "giantsan: blind to uaf-realloc" 6
    (Policy.score d Backend.Giantsan);
  Alcotest.(check int) "asan: same classes as giantsan" 6
    (Policy.score d Backend.Asan);
  Alcotest.(check int) "lfp: partial everywhere it sees" 3
    (Policy.score d Backend.Lfp);
  Alcotest.(check int) "native: blind" 0 (Policy.score d Backend.Native)

let test_decide () =
  let d = Policy.default in
  Alcotest.(check string) "permissive budget picks pac" "pac"
    (Backend.name (Policy.decide d));
  (match Policy.parse "budget=1.5" with
  | Ok spec ->
    Alcotest.(check string) "budget 1.5 only fits giantsan" "giantsan"
      (Backend.name (Policy.decide spec))
  | Error e -> Alcotest.fail e);
  (match Policy.parse "budget=1.0" with
  | Ok spec ->
    Alcotest.(check string) "budget 1.0 leaves only native" "native"
      (Backend.name (Policy.decide spec))
  | Error e -> Alcotest.fail e);
  (* under oob+uaf weights pac/giantsan/asan all score 4: the tie breaks
     toward the cheapest of them *)
  match Policy.parse "budget=2.5,prefer=oob:1;uaf:1" with
  | Ok spec ->
    Alcotest.(check string) "score tie breaks cheaper" "giantsan"
      (Backend.name (Policy.decide spec))
  | Error e -> Alcotest.fail e

let test_assign_respects_mean_budget =
  Helpers.q "greedy assignment never exceeds the mean budget"
    QCheck.(pair (int_range 1 12) (int_range 10 25))
    (fun (tenants, tenths) ->
      let budget = float_of_int tenths /. 10.0 in
      let spec = { Policy.default with Policy.budget } in
      let bs = Policy.assign spec ~tenants in
      let spent =
        List.fold_left (fun a b -> a +. Backend.overhead b) 0.0 bs
      in
      List.length bs = tenants
      && spent <= (budget *. float_of_int tenants) +. 1e-9)

let test_assign_head_gets_coverage () =
  (* mean 1.5 over 4 tenants = 6.0 total: pac (1.58) three times leaves
     1.26, which only native (1.0) fits — the head gets the coverage, the
     tail pays for it *)
  match Policy.parse "budget=1.5" with
  | Error e -> Alcotest.fail e
  | Ok spec ->
    let names = List.map Backend.name (Policy.assign spec ~tenants:4) in
    Alcotest.(check (list string)) "head rich, tail cheap"
      [ "pac"; "pac"; "pac"; "native" ]
      names

let test_downshift_ladder () =
  let d = Policy.default in
  let step current =
    Option.map Backend.name (Policy.downshift d ~current)
  in
  Alcotest.(check (option string)) "asan -> pac" (Some "pac")
    (step Backend.Asan);
  Alcotest.(check (option string)) "pac -> giantsan" (Some "giantsan")
    (step Backend.Pac);
  Alcotest.(check (option string)) "giantsan -> native" (Some "native")
    (step Backend.Giantsan);
  Alcotest.(check (option string)) "native is the last rung" None
    (step Backend.Native)

let test_upshift_ladder () =
  let d = Policy.default in
  let climb current ceiling =
    Option.map Backend.name (Policy.upshift d ~current ~ceiling)
  in
  (* the climb jumps straight to the best-scoring backend under the
     ceiling (pac scores highest under the default weights) ... *)
  Alcotest.(check (option string)) "native -> pac under an asan ceiling"
    (Some "pac")
    (climb Backend.Native Backend.Asan);
  Alcotest.(check (option string)) "native -> pac under a pac ceiling"
    (Some "pac")
    (climb Backend.Native Backend.Pac);
  (* ... never past the ceiling ... *)
  Alcotest.(check (option string)) "native -> giantsan under its ceiling"
    (Some "giantsan")
    (climb Backend.Native Backend.Giantsan);
  (* ... and stops once the tenant is back where it was assigned *)
  Alcotest.(check (option string)) "at the ceiling there is no climb" None
    (climb Backend.Pac Backend.Pac);
  Alcotest.(check (option string)) "above the ceiling there is no climb" None
    (climb Backend.Asan Backend.Pac)

(* ------------------------------------------------------------------ *)
(* The acceptance scenario: breach -> downshift, not quarantine        *)
(* ------------------------------------------------------------------ *)

let impossible_slo =
  match Slo.parse "ops=99999999999" with
  | Ok slo -> slo
  | Error e -> failwith e

let run_with policy =
  Loop.run
    {
      Loop.default_config with
      Loop.tenants = 2;
      ticks = 48;
      slo = impossible_slo;
      policy;
    }

let test_breach_downshifts_not_quarantines () =
  let spec =
    match Policy.parse "budget=2.5,fallback=native" with
    | Ok s -> s
    | Error e -> failwith e
  in
  let o = run_with (Some spec) in
  Alcotest.(check bool) "at least one downshift happened" true
    (o.Loop.o_downshifts <> []);
  (* every downshift steps strictly down the ladder, ending at native *)
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "tenant-%d ended on a cheaper backend" s.Loop.s_id)
        true
        (Backend.overhead s.Loop.s_backend < Backend.overhead Backend.Pac))
    o.Loop.o_tenants;
  (* the policy-less control run quarantines under the same pressure *)
  let control = run_with None in
  Alcotest.(check bool) "without a policy the same SLO quarantines" true
    (control.Loop.o_quarantined > 0);
  Alcotest.(check int) "with a policy nothing above native quarantines" 0
    (List.length
       (List.filter
          (fun s ->
            s.Loop.s_state = Tenant.Quarantined
            && s.Loop.s_backend <> Backend.Native)
          o.Loop.o_tenants))

let test_downshift_run_is_deterministic () =
  let spec =
    match Policy.parse "budget=2.5" with Ok s -> s | Error e -> failwith e
  in
  let render cfg = Loop.render_summary (Loop.run cfg) in
  let cfg jobs =
    {
      Loop.default_config with
      Loop.tenants = 3;
      ticks = 48;
      jobs;
      slo = impossible_slo;
      policy = Some spec;
    }
  in
  Alcotest.(check string) "same bytes across runs" (render (cfg 1))
    (render (cfg 1));
  Alcotest.(check string) "same bytes across jobs 1/2" (render (cfg 1))
    (render (cfg 2))

(* The ladder's round trip, pinned to a floor a pac tenant misses but
   native meets: tenant-0 walks pac -> giantsan -> native under the
   breaches, then a clean window on native earns the climb straight back
   to its original pac assignment — recorded as an upshift and a
   tenant_backend event, ending healthy on the backend it started on. *)
let test_clean_windows_upshift () =
  let spec =
    match Policy.parse "budget=2.5,fallback=native" with
    | Ok s -> s
    | Error e -> failwith e
  in
  let floor =
    match Slo.parse "ops=12400000" with Ok s -> s | Error e -> failwith e
  in
  let o =
    Loop.run
      {
        Loop.default_config with
        Loop.tenants = 2;
        ticks = 64;
        slo = floor;
        policy = Some spec;
        upshift_after = 1;
        tenant_cfg =
          { Tenant.default_config with Tenant.recorder_cap = 8192 };
      }
  in
  Alcotest.(check bool) "tenant-0 downshifted first" true
    (List.mem_assoc 0 o.Loop.o_downshifts);
  Alcotest.(check (list (pair int string)))
    "one upshift, straight back to pac"
    [ (0, "pac") ]
    o.Loop.o_upshifts;
  let t0 = List.hd o.Loop.o_tenants in
  Alcotest.(check string) "ended on its original assignment" "pac"
    (Backend.name t0.Loop.s_backend);
  Alcotest.(check bool) "ended healthy" true
    (t0.Loop.s_state = Tenant.Healthy);
  (* the recorder carries the climb as a tenant_backend event naming pac *)
  let lines = List.assoc 0 o.Loop.o_recorders in
  Alcotest.(check bool) "recorder has the pac tenant_backend event" true
    (List.exists
       (fun l ->
         Helpers.contains l "\"ev\":\"tenant_backend\""
         && Helpers.contains l "\"backend\":\"pac\"")
       lines)

let test_tenant_backend_event_recorded () =
  let spec =
    match Policy.parse "budget=2.5" with Ok s -> s | Error e -> failwith e
  in
  (* deep recorder so later service traffic cannot evict the
     repartition marker before the end-of-run dump *)
  let o =
    Loop.run
      {
        Loop.default_config with
        Loop.tenants = 2;
        ticks = 48;
        slo = impossible_slo;
        policy = Some spec;
        tenant_cfg =
          { Tenant.default_config with Tenant.recorder_cap = 8192 };
      }
  in
  let lines = List.concat_map snd o.Loop.o_recorders in
  Alcotest.(check bool) "recorder carries a tenant_backend event" true
    (List.exists
       (fun l -> Helpers.contains l "\"ev\":\"tenant_backend\"")
       lines)

(* ------------------------------------------------------------------ *)
(* The backend table and the configurations built on it                *)
(* ------------------------------------------------------------------ *)

let unique l = List.length (List.sort_uniq compare l) = List.length l

let test_registry_consistent () =
  let configs = Runner.bench_configs in
  let check what b = Alcotest.(check bool) what true b in
  check "eight configurations, each once"
    (List.length configs = 8 && unique configs);
  List.iter
    (fun id ->
      let n = Backend.name id in
      check (n ^ " round-trips through of_name") (Backend.of_name n = Some id);
      check (n ^ " parses case-insensitively")
        (Backend.of_name (" " ^ String.uppercase_ascii n) = Some id);
      (* a backend's default display name is one configuration's *)
      let san = Backend.create id Helpers.small_config in
      check (n ^ " default name belongs to a configuration")
        (List.exists
           (fun c -> Runner.backend c = id && Runner.runtime_name c = san.San.name)
           configs);
      (* the bug class that kept PAC fuzz-blind: a sanitizing backend the
         differential fuzzer and the detection tables never run *)
      check (n ^ " is a Harness tool unless native")
        (id = Backend.Native
        || List.exists (fun t -> Runner.backend t = id) Harness.all_tools))
    Backend.all;
  check "every name form unique"
    (unique (List.map Backend.name Backend.all)
    && unique (List.map Runner.config_name configs)
    && unique (List.map Runner.runtime_name configs)
    && unique (List.map Giantsan_fuzz.Exec.tool_tag Harness.all_tools));
  check "Backend.all lists every backend once"
    (unique Backend.all
    && List.for_all (fun c -> List.mem (Runner.backend c) Backend.all) configs);
  List.iter
    (fun c ->
      let san = Runner.make_sanitizer ~heap:Helpers.small_config c in
      Alcotest.(check string)
        (Runner.config_name c ^ " builds its runtime name")
        (Runner.runtime_name c) san.San.name)
    configs;
  let overheads = List.map Backend.overhead Backend.all in
  check "Backend.all ascends in overhead"
    (List.sort_uniq compare overheads = overheads)

(* [Policy.parse] never raises; what it accepts has a finite budget of at
   least 1.0 and a weight for every class, and its render parses back to
   the same value, budget included to the last bit. *)
let prop_policy_parse_total =
  let valid (spec : Policy.spec) =
    Float.is_finite spec.Policy.budget && spec.budget >= 1.0
    && List.map fst spec.weights = Backend.all_classes
  in
  Helpers.q "policy parse: total, in range, render round-trips"
    (Helpers.clause_soup
       [ "budget"; "prefer"; "fallback"; " budget "; "speed" ]
       [
         "1"; "1.5"; "2.5"; "0.5"; "1.0000001"; "1234567.5"; "1.1"; "-1";
         "inf"; "nan"; "1e400";
         "oob:3;uaf:2"; "oob:1;oob:2"; "double-free:0"; "uaf-realloc:x";
         "uaf:1;"; "oob"; "native"; "giantsan"; "asan"; "pac"; "lfp"; "x"; "";
       ])
    (fun text ->
      match Policy.parse text with
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)
      | Error _ -> true
      | Ok spec -> (
        valid spec
        &&
        match Policy.parse (Policy.to_string spec) with
        | Ok spec' -> valid spec' && spec' = spec
        | Error e ->
          QCheck.Test.fail_reportf "render %S: %s" (Policy.to_string spec) e))

let test_policy_parse_rejects () =
  List.iter
    (fun (text, want) ->
      match Policy.parse text with
      | Ok spec -> Alcotest.failf "accepted %S as %s" text (Policy.to_string spec)
      | Error e ->
        Alcotest.(check bool) (Printf.sprintf "%S: %s" text e) true
          (Helpers.contains e want))
    [
      ("budget=inf", "finite");
      ("budget=1e400", "finite");
      ("budget=nan", "finite");
      ("budget=1.5,budget=2", "twice");
      ("fallback=native,prefer=oob:1,fallback=asan", "twice");
      ("prefer=oob:1,prefer=uaf:1", "twice");
    ]

let suite =
  ( "policy",
    [
      Helpers.qt "spec grammar round-trips" `Quick test_parse_round_trip;
      Helpers.qt "malformed specs fail with named errors" `Quick
        test_parse_errors;
      Helpers.qt "detection scores pin the matrix" `Quick test_score_pins;
      Helpers.qt "decide: budget gates, score picks, ties break cheap" `Quick
        test_decide;
      test_assign_respects_mean_budget;
      Helpers.qt "assignment: head gets coverage, tail absorbs" `Quick
        test_assign_head_gets_coverage;
      Helpers.qt "downshift walks asan/pac/giantsan/native" `Quick
        test_downshift_ladder;
      Helpers.qt "upshift climbs back, bounded by the assignment" `Quick
        test_upshift_ladder;
      Helpers.qt "breached tenant downshifts instead of quarantining" `Quick
        test_breach_downshifts_not_quarantines;
      Helpers.qt "clean windows upshift back to the assignment" `Quick
        test_clean_windows_upshift;
      Helpers.qt "policy runs stay byte-deterministic across jobs" `Quick
        test_downshift_run_is_deterministic;
      Helpers.qt "repartition records a tenant_backend event" `Quick
        test_tenant_backend_event_recorded;
      Helpers.qt "backend table and configurations are consistent" `Quick
        test_registry_consistent;
      prop_policy_parse_total;
      Helpers.qt "policy parse: non-finite budgets and repeated clauses" `Quick
        test_policy_parse_rejects;
    ] )
