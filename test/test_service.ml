(* The multi-tenant service loop's contracts: byte-determinism of the
   whole observability plane across runs and across --jobs, strict tenant
   isolation under planted chaos faults, SLO watchdog escalation, flight
   recorder boundedness, and backpressure accounting. *)

module Loop = Giantsan_service.Loop
module Tenant = Giantsan_service.Tenant
module Slo = Giantsan_service.Slo
module Fault = Giantsan_chaos.Fault
module Export = Giantsan_telemetry.Export
module Backend = Giantsan_policy.Backend
module Pac = Giantsan_pac.Pac

let base_cfg =
  { Loop.default_config with Loop.tenants = 3; seed = 13; ticks = 40 }

(* Everything observable about a run, as one string. *)
let fingerprint (o : Loop.outcome) =
  String.concat "\n"
    (Loop.render_summary o
     :: List.concat_map
          (fun (id, lines) -> Printf.sprintf "recorder %d" id :: lines)
          o.Loop.o_recorders)

let test_deterministic_across_runs =
  Helpers.qt "same config, same bytes" `Quick (fun () ->
      let a = Loop.run base_cfg and b = Loop.run base_cfg in
      Alcotest.(check string) "fingerprint" (fingerprint a) (fingerprint b))

let test_deterministic_across_jobs =
  Helpers.qt "jobs 1/2/4 are byte-identical" `Quick (fun () ->
      let expected = fingerprint (Loop.run { base_cfg with Loop.jobs = 1 }) in
      List.iter
        (fun jobs ->
          let got = fingerprint (Loop.run { base_cfg with Loop.jobs = jobs }) in
          Alcotest.(check string)
            (Printf.sprintf "jobs=%d" jobs)
            expected got)
        [ 2; 4 ])

let test_chaos_isolated_to_victim =
  Helpers.qt "planted fault perturbs exactly the victim tenant" `Quick
    (fun () ->
      let clean = Loop.run base_cfg in
      let chaotic =
        Loop.run
          { base_cfg with Loop.chaos = Some (1, Fault.Stale_free { pick = 9 }, 8) }
      in
      Alcotest.(check bool) "clean run healthy" true (Loop.healthy clean);
      Alcotest.(check bool) "chaotic run degraded" false (Loop.healthy chaotic);
      (* the fault is attributed to tenant 1 and only tenant 1 *)
      Alcotest.(check (list int))
        "faulted tenants" [ 1 ]
        (List.map fst chaotic.Loop.o_faults);
      Alcotest.(check (list int))
        "dumped tenants" [ 1 ]
        (List.map fst chaotic.Loop.o_dumps);
      (* the victim's recorder carries the fault event ... *)
      let recorder o id = List.assoc id o.Loop.o_recorders in
      Alcotest.(check bool)
        "victim recorder has tenant_fault" true
        (List.exists
           (fun l -> Helpers.contains l "\"ev\":\"tenant_fault\"")
           (recorder chaotic 1));
      (* ... and the bystanders' planes are byte-identical to the clean
         run: quarantining tenant 1 never perturbs tenants 0 and 2 *)
      List.iter
        (fun id ->
          Alcotest.(check (list string))
            (Printf.sprintf "tenant %d recorder unperturbed" id)
            (recorder clean id) (recorder chaotic id))
        [ 0; 2 ])

let test_slo_escalation =
  Helpers.qt "impossible SLO walks every tenant to quarantined" `Quick
    (fun () ->
      let cfg =
        {
          base_cfg with
          Loop.slo = { Slo.none with Slo.min_ops_per_sec = Some 1e12 };
        }
      in
      let o = Loop.run cfg in
      Alcotest.(check bool) "not healthy" false (Loop.healthy o);
      Alcotest.(check int) "all quarantined" cfg.Loop.tenants o.Loop.o_quarantined;
      List.iter
        (fun (s : Loop.tenant_summary) ->
          Alcotest.(check bool)
            (Printf.sprintf "tenant %d state" s.Loop.s_id)
            true
            (s.Loop.s_state = Tenant.Quarantined);
          (* the escalation ladder needs exactly three breached windows *)
          Alcotest.(check int)
            (Printf.sprintf "tenant %d breaches" s.Loop.s_id)
            3 s.Loop.s_breaches;
          (* the recorder is a *bounded* window: earlier breach events get
             evicted by the ops between windows, but the terminal breach
             and the quarantine transition must be on it *)
          let rec_lines = List.assoc s.Loop.s_id o.Loop.o_recorders in
          let has needle =
            List.exists (fun l -> Helpers.contains l needle) rec_lines
          in
          Alcotest.(check bool) "slo_breach on recorder" true
            (has "\"ev\":\"slo_breach\"");
          Alcotest.(check bool) "quarantine transition on recorder" true
            (has "\"state\":\"quarantined\""))
        o.Loop.o_tenants;
      (* a quarantined tenant sheds its whole arrival stream *)
      Alcotest.(check bool) "arrivals shed after quarantine" true (o.Loop.o_shed > 0))

let test_recovery_resets_streak =
  Helpers.qt "breach streak resets on a clean window" `Quick (fun () ->
      (* generous SLO: no window can breach, streaks stay at 0 *)
      let cfg =
        { base_cfg with Loop.slo = { Slo.none with Slo.max_error_rate = Some 1.0 } }
      in
      let o = Loop.run cfg in
      Alcotest.(check bool) "healthy" true (Loop.healthy o);
      Alcotest.(check int) "no breaches" 0 o.Loop.o_breaches)

let test_recorder_bounded =
  Helpers.qt "flight recorder never exceeds its cap" `Quick (fun () ->
      let cap = 16 in
      let cfg =
        {
          base_cfg with
          Loop.tenant_cfg =
            { Tenant.default_config with Tenant.recorder_cap = cap };
        }
      in
      let o = Loop.run cfg in
      List.iter
        (fun (id, lines) ->
          Alcotest.(check bool)
            (Printf.sprintf "tenant %d recorder bounded" id)
            true
            (List.length lines <= cap);
          (* dumps are replayable: every line passes the strict checker *)
          match Export.check_ndjson (String.concat "\n" lines) with
          | Ok n -> Alcotest.(check int) "all lines valid" (List.length lines) n
          | Error e -> Alcotest.fail e)
        o.Loop.o_recorders)

let test_backpressure_sheds =
  Helpers.qt "a tiny queue sheds arrivals without corrupting the stream"
    `Quick (fun () ->
      let cfg =
        {
          base_cfg with
          Loop.quantum = 2;
          arrival_mean = 24;
          tenant_cfg = { Tenant.default_config with Tenant.queue_cap = 8 };
        }
      in
      let o = Loop.run cfg in
      Alcotest.(check bool) "shed some arrivals" true (o.Loop.o_shed > 0);
      Alcotest.(check bool) "still served ops" true (o.Loop.o_ops > 0);
      (* shedding must not break determinism *)
      Alcotest.(check string) "still deterministic" (fingerprint o)
        (fingerprint (Loop.run cfg)))

let test_stalled_tenant_escalates =
  Helpers.qt "a fully stalled tenant escalates instead of looking healthy"
    `Quick (fun () ->
      (* quantum 0: nothing is ever served, so no rate window ever closes
         and the watchdog has no window to evaluate — the old logic left
         the wedged tenants Healthy for the whole run. Zero-progress ticks
         with queued demand now count against the breach streak. *)
      let cfg =
        {
          base_cfg with
          Loop.tenants = 2;
          ticks = 12;
          quantum = 0;
          slo = { Slo.none with Slo.min_ops_per_sec = Some 1.0 };
        }
      in
      let o = Loop.run cfg in
      Alcotest.(check bool) "not healthy" false (Loop.healthy o);
      Alcotest.(check int) "both tenants quarantined" 2 o.Loop.o_quarantined;
      Alcotest.(check int) "no ops were ever completed" 0 o.Loop.o_ops;
      Alcotest.(check bool) "backpressure: demand was shed" true
        (o.Loop.o_shed > 0);
      List.iter
        (fun (s : Loop.tenant_summary) ->
          Alcotest.(check int)
            (Printf.sprintf "tenant %d: three stall breaches" s.Loop.s_id)
            3 s.Loop.s_breaches)
        o.Loop.o_tenants;
      let rec_lines = List.assoc 0 o.Loop.o_recorders in
      Alcotest.(check bool) "synthetic breach named on the recorder" true
        (List.exists (fun l -> Helpers.contains l "stalled") rec_lines);
      (* without an SLO the stall gate stays off: a wedged tenant is only
         an SLO matter when objectives are configured *)
      let off = Loop.run { cfg with Loop.slo = Slo.none } in
      Alcotest.(check int) "gate off without an SLO" 0 off.Loop.o_breaches;
      Alcotest.(check int) "nobody quarantined without an SLO" 0
        off.Loop.o_quarantined)

let test_service_rows =
  Helpers.qt "service rows: global row aggregates the tenant rows" `Quick
    (fun () ->
      let o = Loop.run base_cfg in
      match Loop.service_rows o with
      | [] -> Alcotest.fail "no rows"
      | global :: tenants ->
        Alcotest.(check string) "global first" "global" global.Export.sv_scope;
        Alcotest.(check int) "tenant rows" base_cfg.Loop.tenants
          (List.length tenants);
        let sum f = List.fold_left (fun a r -> a + f r) 0 tenants in
        Alcotest.(check int) "ops add up" global.Export.sv_ops
          (sum (fun r -> r.Export.sv_ops));
        Alcotest.(check int) "errors add up" global.Export.sv_errors
          (sum (fun r -> r.Export.sv_errors));
        Alcotest.(check bool) "latency populated" true
          (global.Export.sv_latency_p50 > 0.0
          && global.Export.sv_latency_p999 >= global.Export.sv_latency_p99
          && global.Export.sv_latency_p99 >= global.Export.sv_latency_p50);
        Alcotest.(check bool) "throughput populated" true
          (global.Export.sv_ops_per_sec > 0.0))

let test_bench_roundtrip =
  Helpers.qt "bench JSON service section survives a write/parse loop" `Quick
    (fun () ->
      let o = Loop.run base_cfg in
      let rows = Loop.service_rows o in
      let body = Export.bench_json ~profiles:[] ~service:rows () in
      match Export.parse_bench_service body with
      | Error e -> Alcotest.fail e
      | Ok parsed ->
        Alcotest.(check int) "row count" (List.length rows) (List.length parsed);
        List.iter2
          (fun (a : Export.service_row) (b : Export.service_row) ->
            Alcotest.(check string) "scope" a.Export.sv_scope b.Export.sv_scope;
            Alcotest.(check int) "ops" a.Export.sv_ops b.Export.sv_ops;
            Alcotest.(check (float 1e-9)) "p999" a.Export.sv_latency_p999
              b.Export.sv_latency_p999;
            Alcotest.(check (float 1e-9)) "ops/s" a.Export.sv_ops_per_sec
              b.Export.sv_ops_per_sec)
          rows parsed)

let test_slo_parse =
  Helpers.qt "SLO spec parse/print round trip and named errors" `Quick
    (fun () ->
      (match Slo.parse "p999=20000,err=0.05,ops=50000" with
      | Error e -> Alcotest.fail e
      | Ok t ->
        Alcotest.(check string) "round trip" "p999=20000,err=0.05,ops=50000"
          (Slo.to_string t));
      (match Slo.parse "" with
      | Ok t -> Alcotest.(check bool) "empty is none" true (Slo.is_none t)
      | Error e -> Alcotest.fail e);
      (match Slo.parse "latency=3" with
      | Ok _ -> Alcotest.fail "unknown key accepted"
      | Error e ->
        Alcotest.(check bool) "names the key" true
          (Helpers.contains e "latency"));
      match Slo.parse "p999=banana" with
      | Ok _ -> Alcotest.fail "bad number accepted"
      | Error e ->
        Alcotest.(check bool) "names the value" true
          (Helpers.contains e "banana"))

let test_quantum_halved_when_degraded =
  Helpers.qt "a degraded tenant serves at half quantum" `Quick (fun () ->
      (* SLO low enough to breach once windows close, but watch only two
         windows' worth: the tenant should pass through Degraded *)
      let cfg =
        {
          base_cfg with
          Loop.tenants = 1;
          ticks = 60;
          slo = { Slo.none with Slo.min_ops_per_sec = Some 1e12 };
          (* deep recorder: keep the whole escalation ladder on it *)
          tenant_cfg =
            { Tenant.default_config with Tenant.recorder_cap = 4096 };
        }
      in
      let o = Loop.run cfg in
      let s = List.hd o.Loop.o_tenants in
      let rec_lines = List.assoc 0 o.Loop.o_recorders in
      Alcotest.(check bool) "went through degraded" true
        (List.exists
           (fun l -> Helpers.contains l "\"state\":\"degraded\"")
           rec_lines);
      Alcotest.(check bool) "ended quarantined" true
        (s.Loop.s_state = Tenant.Quarantined))

(* Per-tenant PA keys: two tenants of the same service run derive
   distinct keys, the key survives repartition (a tenant downshifted off
   PAC and upshifted back keeps its signing identity), and a pointer
   signed under tenant A's key fails authentication — as a forge, not a
   stale — under tenant B's, even at the same salt-counter position. *)
let test_per_tenant_pac_keys =
  Helpers.qt "cross-tenant PAC forge isolation" `Quick (fun () ->
      let cfg = { Tenant.default_config with Tenant.backend = Backend.Pac } in
      let ta = Tenant.create ~id:0 ~seed:13 cfg in
      let tb = Tenant.create ~id:1 ~seed:13 cfg in
      Alcotest.(check bool)
        "keys differ" true
        (Tenant.pac_key ta <> Tenant.pac_key tb);
      let key_before = Tenant.pac_key ta in
      Tenant.repartition ta ~backend:Backend.Giantsan;
      Tenant.repartition ta ~backend:Backend.Pac;
      Alcotest.(check int) "key survives repartition" key_before
        (Tenant.pac_key ta);
      let pa = Pac.create ~key:(Tenant.pac_key ta) () in
      let pb = Pac.create ~key:(Tenant.pac_key tb) () in
      let base = 4096 in
      let tagged_a = Pac.sign pa ~base in
      ignore (Pac.sign pb ~base);
      (match Pac.authenticate pb tagged_a ~base with
      | Error (Pac.Forged _) -> ()
      | Ok _ ->
        Alcotest.fail "tenant A's signature authenticated under tenant B's key"
      | Error Pac.Stale -> Alcotest.fail "expected forged, got stale");
      match Pac.authenticate pa tagged_a ~base with
      | Ok _ -> ()
      | Error f -> Alcotest.fail ("self-auth failed: " ^ Pac.failure_to_string f))

(* [Slo.parse] never raises; what it accepts is in range and its render
   parses back to the same value, every threshold to the last bit. *)
let prop_slo_parse_total =
  let valid (t : Slo.t) =
    let ok = function None -> true | Some f -> Float.is_finite f && f >= 0.0 in
    ok t.Slo.max_p999_ns && ok t.max_error_rate && ok t.min_ops_per_sec
    && Option.fold ~none:true ~some:(fun f -> f <= 1.0) t.max_error_rate
  in
  Helpers.q "SLO parse: total, in range, render round-trips"
    (Helpers.clause_soup
       [ "p999"; "err"; "ops"; " err "; "latency" ]
       [
         "0"; "1"; "1.5"; "0.02"; "0.999999"; "0.1234567"; "20000";
         "999999999"; "1234567.5"; "-1"; "inf";
         "-inf"; "nan"; "1e400"; "1e-400"; "x"; "0x10"; "1_000"; "";
       ])
    (fun text ->
      match Slo.parse text with
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)
      | Error _ -> true
      | Ok t -> (
        valid t
        &&
        match Slo.parse (Slo.to_string t) with
        | Ok t' -> valid t' && t' = t
        | Error e -> QCheck.Test.fail_reportf "render %S: %s" (Slo.to_string t) e))

let test_slo_parse_rejects () =
  List.iter
    (fun (text, want) ->
      match Slo.parse text with
      | Ok t -> Alcotest.failf "accepted %S as %s" text (Slo.to_string t)
      | Error e ->
        Alcotest.(check bool) (Printf.sprintf "%S: %s" text e) true
          (Helpers.contains e want))
    [
      ("err=1.5", "fraction");
      ("p999=inf", "finite");
      ("ops=1e400", "finite");
      ("err=-inf", "finite");
      ("p999=20000,p999=1", "twice");
      ("err=0.1,ops=5,err=0.2", "twice");
    ];
  match Slo.parse "err=1" with
  | Ok t -> Alcotest.(check (option (float 0.))) "err=1 is a fraction" (Some 1.0) t.Slo.max_error_rate
  | Error e -> Alcotest.fail e

let suite =
  ( "service",
    [
      test_deterministic_across_runs;
      test_deterministic_across_jobs;
      test_chaos_isolated_to_victim;
      test_slo_escalation;
      test_recovery_resets_streak;
      test_recorder_bounded;
      test_backpressure_sheds;
      test_stalled_tenant_escalates;
      test_service_rows;
      test_bench_roundtrip;
      test_slo_parse;
      test_quantum_halved_when_degraded;
      test_per_tenant_pac_keys;
      prop_slo_parse_total;
      Helpers.qt "SLO parse: out-of-range, non-finite and repeated clauses"
        `Quick test_slo_parse_rejects;
    ] )
