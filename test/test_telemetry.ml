(* The telemetry subsystem's own invariants: ring wraparound arithmetic,
   the histogram merge monoid, JSON printing/parsing, byte-identical trace
   determinism, and the zero-allocation guarantee of the disabled path. *)

module Ring = Giantsan_telemetry.Ring
module Json = Giantsan_telemetry.Json
module Histogram = Giantsan_telemetry.Histogram
module Trace = Giantsan_telemetry.Trace
module Export = Giantsan_telemetry.Export
module Corpus = Giantsan_fuzz.Corpus
module Exec = Giantsan_fuzz.Exec

(* ------------------------------------------------------------------ *)
(* Ring                                                                *)
(* ------------------------------------------------------------------ *)

let test_ring_wraparound =
  Helpers.qt "wraparound keeps the trailing window" `Quick (fun () ->
      let r = Ring.create ~capacity:4 in
      for i = 0 to 9 do
        Ring.push r i
      done;
      Alcotest.(check (list int)) "retained" [ 6; 7; 8; 9 ] (Ring.to_list r);
      Alcotest.(check int) "pushed" 10 (Ring.pushed r);
      Alcotest.(check int) "dropped" 6 (Ring.dropped r);
      Alcotest.(check int) "length" 4 (Ring.length r);
      Alcotest.(check (list (pair int int)))
        "global sequence numbers survive wraparound"
        [ (6, 6); (7, 7); (8, 8); (9, 9) ]
        (Ring.to_seq_list r);
      Ring.clear r;
      Alcotest.(check (list int)) "clear empties" [] (Ring.to_list r))

let test_ring_under_capacity =
  Helpers.qt "no wraparound below capacity" `Quick (fun () ->
      let r = Ring.create ~capacity:8 in
      List.iter (Ring.push r) [ 1; 2; 3 ];
      Alcotest.(check (list int)) "all retained" [ 1; 2; 3 ] (Ring.to_list r);
      Alcotest.(check int) "dropped" 0 (Ring.dropped r))

let test_ring_property =
  Helpers.q "ring always holds the last min(pushed,capacity) entries"
    QCheck.(pair (int_range 1 16) (small_list small_int))
    (fun (capacity, xs) ->
      let r = Ring.create ~capacity in
      List.iter (Ring.push r) xs;
      let n = List.length xs in
      let keep = min n capacity in
      let expected = List.filteri (fun i _ -> i >= n - keep) xs in
      Ring.to_list r = expected
      && Ring.pushed r = n
      && Ring.dropped r = n - keep)

(* ------------------------------------------------------------------ *)
(* Histogram                                                           *)
(* ------------------------------------------------------------------ *)

let test_bucket_boundaries =
  Helpers.qt "log2 bucket boundaries" `Quick (fun () ->
      let cases =
        [
          (-5, 0); (0, 0); (1, 1); (2, 2); (3, 2); (4, 3); (7, 3); (8, 4);
          (1023, 10); (1024, 11);
        ]
      in
      List.iter
        (fun (v, b) ->
          Alcotest.(check int)
            (Printf.sprintf "bucket_of_value %d" v)
            b
            (Histogram.bucket_of_value v))
        cases;
      (* bucket_lo is a left inverse on bucket starts *)
      for b = 0 to 20 do
        Alcotest.(check int)
          (Printf.sprintf "bucket_of_value (bucket_lo %d)" b)
          b
          (Histogram.bucket_of_value (Histogram.bucket_lo b))
      done)

let hist_of_observations obs =
  let h = Histogram.create "h" in
  List.iter (Histogram.observe h) obs;
  h

let arb_hist =
  QCheck.make
    ~print:(fun obs ->
      Format.asprintf "%a" Histogram.pp (hist_of_observations obs))
    QCheck.Gen.(small_list (int_bound 100_000))

let test_hist_merge_commutative =
  Helpers.q "merge is commutative"
    QCheck.(pair arb_hist arb_hist)
    (fun (a, b) ->
      let a = hist_of_observations a and b = hist_of_observations b in
      Histogram.equal (Histogram.merge a b) (Histogram.merge b a))

let test_hist_merge_associative =
  Helpers.q "merge is associative"
    QCheck.(triple arb_hist arb_hist arb_hist)
    (fun (a, b, c) ->
      let a = hist_of_observations a
      and b = hist_of_observations b
      and c = hist_of_observations c in
      Histogram.equal
        (Histogram.merge (Histogram.merge a b) c)
        (Histogram.merge a (Histogram.merge b c)))

let test_hist_merge_identity =
  Helpers.q "empty histogram is the identity of merge" arb_hist (fun a ->
      let a = hist_of_observations a in
      let zero = Histogram.create "h" in
      Histogram.equal (Histogram.merge a zero) a
      && Histogram.equal (Histogram.merge zero a) a)

let test_hist_merge_counts =
  Helpers.q "merge sums counts, sums and maxima"
    QCheck.(pair arb_hist arb_hist)
    (fun (xa, xb) ->
      let a = hist_of_observations xa and b = hist_of_observations xb in
      let m = Histogram.merge a b in
      Histogram.count m = Histogram.count a + Histogram.count b
      && Histogram.sum m = Histogram.sum a + Histogram.sum b
      && Histogram.max_value m = max (Histogram.max_value a) (Histogram.max_value b))

let test_hist_name_mismatch =
  Helpers.qt "merge rejects mismatched names" `Quick (fun () ->
      let a = Histogram.create "a" and b = Histogram.create "b" in
      Alcotest.check_raises "name mismatch"
        (Invalid_argument "Histogram.merge: a vs b") (fun () ->
          ignore (Histogram.merge a b)))

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip =
  Helpers.qt "print/parse round-trip" `Quick (fun () ->
      let v =
        Json.Obj
          [
            ("s", Json.Str "a \"quoted\"\n\tstring");
            ("i", Json.Int (-42));
            ("f", Json.Float 2.5);
            ("b", Json.Bool true);
            ("n", Json.Null);
            ("l", Json.List [ Json.Int 1; Json.Str "x"; Json.Obj [] ]);
          ]
      in
      match Json.parse (Json.to_string v) with
      | Ok v' -> Alcotest.(check bool) "round-trips" true (v = v')
      | Error e -> Alcotest.fail e)

let test_json_rejects =
  Helpers.qt "parser rejects malformed input" `Quick (fun () ->
      List.iter
        (fun text ->
          match Json.parse text with
          | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" text)
          | Error _ -> ())
        [ ""; "{"; "[1,]"; "{\"a\":}"; "{} trailing"; "nul"; "\"open" ])

let test_json_nonfinite =
  Helpers.qt "non-finite floats render as null" `Quick (fun () ->
      Alcotest.(check string)
        "nan" "[null,null,1.5]"
        (Json.to_string
           (Json.List [ Json.Float nan; Json.Float infinity; Json.Float 1.5 ])))

(* ------------------------------------------------------------------ *)
(* Trace determinism and NDJSON validity                               *)
(* ------------------------------------------------------------------ *)

let load_scn path =
  match Corpus.load_file path with
  | Ok sc -> sc
  | Error e -> Alcotest.fail (path ^ ": " ^ e)

let regression = "corpus/regressions/uaf_then_double_free.scn"

let test_trace_deterministic =
  Helpers.qt "same scenario twice => byte-identical NDJSON" `Quick (fun () ->
      let sc = load_scn regression in
      let t1 = Exec.capture_trace sc and t2 = Exec.capture_trace sc in
      Alcotest.(check bool) "non-empty" true (t1 <> []);
      Alcotest.(check (list string)) "identical" t1 t2)

let test_trace_covers_all_tools =
  Helpers.qt "the trace carries events from every tool" `Quick (fun () ->
      let sc = load_scn regression in
      let text = String.concat "\n" (Exec.capture_trace sc) in
      List.iter
        (fun tool ->
          let needle = Printf.sprintf "\"tool\":%s" (Json.to_string (Json.Str tool)) in
          let found =
            let nl = String.length needle and tl = String.length text in
            let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
            go 0
          in
          Alcotest.(check bool) tool true found)
        [ "GiantSan"; "ASan"; "ASan--"; "LFP" ])

let test_trace_lines_valid_ndjson =
  Helpers.qt "every captured line passes the NDJSON checker" `Quick (fun () ->
      let sc = load_scn regression in
      let lines = Exec.capture_trace sc in
      match Export.check_ndjson (String.concat "\n" lines) with
      | Ok n -> Alcotest.(check int) "all lines counted" (List.length lines) n
      | Error e -> Alcotest.fail e)

let test_with_capture_restores =
  Helpers.qt "with_capture restores the previous sink state" `Quick (fun () ->
      Alcotest.(check bool) "off before" false (Trace.is_on ());
      let (), events =
        Trace.with_capture (fun () ->
            Trace.emit_free ~tool:"t" ~addr:1;
            Alcotest.(check bool) "on inside" true (Trace.is_on ()))
      in
      Alcotest.(check int) "captured" 1 (List.length events);
      Alcotest.(check bool) "off after" false (Trace.is_on ()))

let test_disabled_path_allocates_nothing =
  Helpers.qt "disabled emitters allocate nothing" `Quick (fun () ->
      Trace.disable ();
      let emit_all i =
        ignore (Trace.is_on ());
        Trace.emit_malloc ~tool:"t" ~base:i ~size:8 ~kind:"heap";
        Trace.emit_free ~tool:"t" ~addr:i;
        Trace.emit_access ~tool:"t" ~addr:i ~width:8 ~fast:true;
        Trace.emit_shadow_load ~tool:"t" ~count:i;
        Trace.emit_cache_hit ~tool:"t" ~off:i;
        Trace.emit_cache_update ~tool:"t" ~ub:i;
        Trace.emit_region_check ~tool:"t" ~lo:0 ~hi:i ~fast:true ~loads:0;
        Trace.emit_report ~tool:"t" ~kind:"k" ~addr:i;
        Trace.emit_phase_begin ~name:"p";
        Trace.emit_phase_end ~name:"p"
      in
      emit_all 0;
      let delta =
        Helpers.minor_words_of (fun () ->
            for i = 1 to 100_000 do
              emit_all i
            done)
      in
      if delta > Helpers.counter_cost () then
        Alcotest.fail
          (Printf.sprintf "disabled emit path allocated %.0f words" delta))

(* The live-sink count behind the one-load gate must track the per-domain
   switches exactly, whatever order they flip in. *)

let spin_until flag =
  while not (Atomic.get flag) do
    Domain.cpu_relax ()
  done

let test_gate_is_per_domain =
  Helpers.qt "tracing on one domain leaves the other's switch off" `Quick
    (fun () ->
      Alcotest.(check int) "no sink on" 0 (Trace.sinks_on ());
      (* a worker traces; the main domain stays off *)
      let enabled = Atomic.make false and checked = Atomic.make false in
      let worker =
        Domain.spawn (fun () ->
            Trace.enable ();
            Atomic.set enabled true;
            spin_until checked;
            let on = Trace.is_on () in
            Trace.disable ();
            on)
      in
      spin_until enabled;
      Alcotest.(check int) "worker's sink counted" 1 (Trace.sinks_on ());
      Alcotest.(check bool) "main off while worker traces" false
        (Trace.is_on ());
      Trace.emit_free ~tool:"t" ~addr:1;
      Atomic.set checked true;
      Alcotest.(check bool) "worker on" true (Domain.join worker);
      Alcotest.(check int) "worker's sink released" 0 (Trace.sinks_on ());
      (* and the reverse: main traces, a fresh worker stays off *)
      Trace.enable ();
      let worker_on =
        Domain.join
          (Domain.spawn (fun () ->
               Trace.emit_free ~tool:"worker" ~addr:2;
               Trace.is_on ()))
      in
      Alcotest.(check bool) "worker off while main traces" false worker_on;
      Alcotest.(check int) "worker's emit stayed out of main's ring" 0
        (Trace.emitted ());
      Trace.disable ();
      Trace.clear ();
      (* a domain that exits with tracing on gives its share back *)
      Domain.join (Domain.spawn (fun () -> Trace.enable ()));
      Alcotest.(check int) "exited domain released" 0 (Trace.sinks_on ()))

let check_gate_settled what =
  Alcotest.(check int) (what ^ ": no sink on") 0 (Trace.sinks_on ());
  Alcotest.(check bool) (what ^ ": off") false (Trace.is_on ());
  Trace.enable ();
  Alcotest.(check bool) (what ^ ": a later enable works") true
    (Trace.is_on ());
  Trace.emit_free ~tool:"t" ~addr:1;
  Alcotest.(check int) (what ^ ": and records") 1 (Trace.emitted ());
  Trace.disable ();
  Trace.clear ();
  Alcotest.(check int) (what ^ ": disable releases") 0 (Trace.sinks_on ())

let test_gate_count_consistent =
  Helpers.qt "the live-sink count survives every switch sequence" `Quick
    (fun () ->
      Trace.enable ();
      Trace.disable ();
      Trace.disable ();
      check_gate_settled "disable twice";
      let ((), inner), outer =
        Trace.with_capture (fun () ->
            Trace.with_capture (fun () ->
                Alcotest.(check int) "nested: one sink" 1 (Trace.sinks_on ());
                Trace.emit_free ~tool:"inner" ~addr:1))
      in
      Alcotest.(check int) "nested: inner captured" 1 (List.length inner);
      Alcotest.(check int) "nested: outer untouched" 0 (List.length outer);
      check_gate_settled "nested with_capture";
      (match Trace.with_capture (fun () -> failwith "boom") with
      | _ -> Alcotest.fail "the exception was swallowed"
      | exception Failure _ -> ());
      check_gate_settled "exception inside with_capture")

(* ------------------------------------------------------------------ *)
(* Performance regression gate                                         *)
(* ------------------------------------------------------------------ *)

let mk_profile ?(sim_ns = 5000.0) ?(ops = 100) ?(stores = 40) name config =
  {
    Export.bp_profile = name;
    bp_config = config;
    bp_sim_ns = sim_ns;
    bp_ops = ops;
    bp_shadow_loads = 250;
    bp_shadow_stores = stores;
    bp_region_checks = 30;
    bp_fast_checks = 25;
    bp_slow_checks = 5;
    bp_word_checks = 20;
  }

let mk_doc profiles = Export.bench_json ~profiles ()

let gate_ok = function
  | Ok n -> n
  | Error es -> Alcotest.fail (String.concat "; " es)

let gate_failures = function
  | Ok n -> Alcotest.failf "gate passed (%d rows) but should fail" n
  | Error es -> es

let test_gate_identical_passes =
  Helpers.qt "gate: identical documents pass" `Quick (fun () ->
      let doc =
        mk_doc [ mk_profile "seq" "giantsan"; mk_profile "churn" "asan" ]
      in
      let n =
        gate_ok (Export.compare_bench ~baseline:doc ~current:doc)
      in
      Alcotest.(check int) "both rows compared" 2 n)

let test_gate_tolerates_small_ns_drift =
  Helpers.qt "gate: ns/op drift within tolerance passes" `Quick (fun () ->
      let baseline = mk_doc [ mk_profile ~sim_ns:5000.0 "seq" "giantsan" ] in
      let current = mk_doc [ mk_profile ~sim_ns:6000.0 "seq" "giantsan" ] in
      ignore
        (gate_ok
           (Export.compare_bench ~baseline ~current)))

let test_gate_rejects_ns_regression =
  Helpers.qt "gate: >tolerance ns/op regression fails" `Quick (fun () ->
      let baseline = mk_doc [ mk_profile ~sim_ns:5000.0 "seq" "giantsan" ] in
      let current = mk_doc [ mk_profile ~sim_ns:7000.0 "seq" "giantsan" ] in
      match Export.compare_bench ~baseline ~current with
      | Ok _ -> Alcotest.fail "40% regression passed the gate"
      | Error [ msg ] ->
          Alcotest.(check bool) "message names the row" true
            (Helpers.contains msg "seq")
      | Error es ->
          Alcotest.failf "expected one violation, got %d" (List.length es))

let test_gate_rejects_large_improvement =
  Helpers.qt "gate: improvement beyond tolerance demands re-baseline" `Quick
    (fun () ->
      (* a big speed-up is good news but still a baseline mismatch; the
         gate insists the committed baseline be refreshed intentionally *)
      let baseline = mk_doc [ mk_profile ~sim_ns:5000.0 "seq" "giantsan" ] in
      let current = mk_doc [ mk_profile ~sim_ns:2000.0 "seq" "giantsan" ] in
      let es =
        gate_failures (Export.compare_bench ~baseline ~current)
      in
      Alcotest.(check bool) "suggests re-baselining" true
        (List.exists (fun m -> Helpers.contains m "re-baseline") es))

let test_gate_rejects_count_mismatch =
  Helpers.qt "gate: any event-count mismatch fails exactly" `Quick (fun () ->
      let baseline = mk_doc [ mk_profile ~stores:40 "seq" "giantsan" ] in
      let current = mk_doc [ mk_profile ~stores:41 "seq" "giantsan" ] in
      let es =
        gate_failures (Export.compare_bench ~baseline ~current)
      in
      Alcotest.(check bool) "names shadow_stores" true
        (List.exists (fun m -> Helpers.contains m "shadow_stores") es))

let test_gate_rejects_missing_rows =
  Helpers.qt "gate: rows missing from either side fail" `Quick (fun () ->
      let both = [ mk_profile "seq" "giantsan"; mk_profile "churn" "asan" ] in
      let one = [ mk_profile "seq" "giantsan" ] in
      (match
         Export.compare_bench ~baseline:(mk_doc both)
           ~current:(mk_doc one)
       with
      | Ok _ -> Alcotest.fail "dropped row passed the gate"
      | Error _ -> ());
      match
        Export.compare_bench ~baseline:(mk_doc one)
          ~current:(mk_doc both)
      with
      | Ok _ -> Alcotest.fail "new unbaselined row passed the gate"
      | Error _ -> ())

(* The gate's rule table over the committed baseline: every rule holds
   on it, each fails under its own name on a document doctored to break
   it alone, and missing fig11 / fuzz-mode rows are an error. *)

module J = Giantsan_telemetry.Json

let committed_bench =
  In_channel.with_open_text "../BENCH_giantsan.json" In_channel.input_all

(* rewrite the (profile, config) row's fields with [f]; [None] drops it *)
let doctor profile config f doc =
  let edit = function
    | J.Obj fields as row
      when J.member "profile" row = Some (J.Str profile)
           && J.member "config" row = Some (J.Str config) ->
      Option.map (fun fs -> J.Obj fs) (f fields)
    | row -> Some row
  in
  match J.parse doc with
  | Ok (J.Obj top) ->
    J.to_string
      (J.Obj
         (List.map
            (function
              | "profiles", J.List rows ->
                ("profiles", J.List (List.filter_map edit rows))
              | kv -> kv)
            top))
  | _ -> Alcotest.fail "committed bench JSON does not parse"

let set k v fields = Some ((k, v) :: List.remove_assoc k fields)
let drop _ = None

let committed_rows () =
  match Export.parse_bench_profiles committed_bench with
  | Ok rows -> rows
  | Error e -> Alcotest.fail e

let ns profile config =
  let hit g = Export.(g.g_profile, g.g_config) = (profile, config) in
  (List.find hit (committed_rows ())).Export.g_ns_per_op

let rule_names = List.map (fun r -> r.Export.rule) Export.gate_rules

let test_gate_rules_pass_on_baseline () =
  match Export.gate ~baseline:committed_bench ~current:committed_bench with
  | Export.Pass judged ->
    Alcotest.(check (list string)) "every rule ran" rule_names
      (List.map fst judged);
    Alcotest.(check int) "every baseline row compared"
      (List.length (committed_rows ()))
      (List.assoc "counts-exact" judged)
  | Export.Violations vs -> Alcotest.fail (String.concat "; " (List.map snd vs))
  | Export.Unusable e -> Alcotest.fail e

let test_gate_rules_fail_alone () =
  let b = committed_bench in
  let sweep f = doctor "505.mcf_r" "GiantSan" f b in
  (* the shape rules doctor both sides, so the comparison rules see two
     identical documents *)
  let both profile config f = let d = doctor profile config f b in (d, d) in
  let rev = "fig11.reverse-16KiB" and pers = "fuzzmode.persistent" in
  let cases =
    [
      ("rows-present", (b, sweep drop), "missing from current run");
      ("rows-baselined", (sweep drop, b), "not in baseline");
      ( "counts-exact",
        (b, sweep (set "shadow_stores" (J.Int 1))),
        "shadow_stores changed" );
      ("ns-per-op", (b, sweep (set "ns_per_op" (J.Float 1e9))), "regressed");
      ( "fig11-word-path",
        both rev "giantsan" (set "word_checks" (J.Int 0)),
        "word-path ratio" );
      ( "fig11-order",
        both rev "giantsan" (set "ns_per_op" (J.Float (2.0 *. ns rev "asan"))),
        "slower than ASan" );
      ("fuzzmode-rows", both pers "asan" drop, "missing one of its two");
      ("fuzzmode-counts", both pers "pac" (set "ops" (J.Int 1)), "differ");
      ( "fuzzmode-persistent",
        both pers "lfp" (set "ns_per_op" (J.Float 1e12)),
        "slower than rebuild" );
      ( "fuzzmode-speedup",
        both pers "giantsan"
          (set "ns_per_op" (J.Float (ns "fuzzmode.rebuild" "giantsan" /. 2.0))),
        "below the 5.00x floor" );
    ]
  in
  Alcotest.(check (list string)) "one case per rule" rule_names
    (List.map (fun (r, _, _) -> r) cases);
  List.iter
    (fun (rule, (baseline, current), phrase) ->
      match Export.gate ~baseline ~current with
      | Export.Violations vs ->
        Alcotest.(check (list string)) (rule ^ " fails alone") [ rule ]
          (List.sort_uniq compare (List.map fst vs));
        Alcotest.(check bool) (rule ^ " names the breach") true
          (List.for_all (fun (_, m) -> Helpers.contains m phrase) vs)
      | _ -> Alcotest.failf "%s: the doctored document did not violate" rule)
    cases

let test_gate_missing_rows_are_errors () =
  let unusable what doc =
    match Export.gate ~baseline:doc ~current:doc with
    | Export.Unusable e ->
      Alcotest.(check bool) what true (Helpers.contains e what)
    | _ -> Alcotest.failf "a document without %s rows was not an error" what
  in
  let b = committed_bench in
  unusable "fig11" (doctor "fig11.reverse-16KiB" "asan" drop b);
  unusable "fuzzmode" (doctor "fuzzmode.rebuild" "giantsan" drop b);
  match Export.gate ~baseline:b ~current:"{\"broken" with
  | Export.Unusable e ->
    Alcotest.(check bool) "corrupt" true (Helpers.contains e "current")
  | _ -> Alcotest.fail "corrupt JSON was not an error"

(* Bench documents once carried wall-clock [groups] before the rows and
   [spans] after them. The committed baseline has neither, and the gate,
   which reads only [profiles], passes it against a copy in that older
   shape, either way round (against itself: the rule-table test above). *)
let test_gate_ignores_retired_sections () =
  let b = committed_bench in
  let schema = {|{"schema":"giantsan-bench/v1",|} in
  Alcotest.(check bool) "no groups/spans" false
    (Helpers.contains b {|"groups"|} || Helpers.contains b {|"spans"|});
  (* the rows and the service section, without the closing "}\n" *)
  let rows =
    let n = String.length schema in
    String.sub b n (String.length b - n - 2)
  in
  let old_shape =
    schema
    ^ {|"groups":[{"name":"table2","results":[{"name":"table2/ASan",|}
    ^ {|"ns_per_run":500480.4}]}],|} ^ rows
    ^ {|,"spans":[{"name":"bench:profile-sweep","wall_ns":2129680156,|}
    ^ {|"minor_words":88592060.0,"major_words":381549536.0}]}|}
  in
  List.iter
    (fun (baseline, current) ->
      match Export.gate ~baseline ~current with
      | Export.Pass _ -> ()
      | Export.Violations vs ->
        Alcotest.fail (String.concat "; " (List.map snd vs))
      | Export.Unusable e -> Alcotest.fail e)
    [ (old_shape, b); (b, old_shape) ]

(* ------------------------------------------------------------------ *)
(* Quantile readouts vs the sorted-array oracle                        *)
(* ------------------------------------------------------------------ *)

module Latency = Giantsan_telemetry.Latency
module Clock = Giantsan_telemetry.Clock
module Window = Giantsan_telemetry.Window
module Event = Giantsan_telemetry.Event

(* numpy-linear order statistic at fractional rank q*(n-1) *)
let oracle_quantile sorted q =
  let n = Array.length sorted in
  let rank = q *. float_of_int (n - 1) in
  let lo = sorted.(int_of_float (Float.of_int (truncate rank) *. 1.0)) in
  let hi = sorted.(min (n - 1) (truncate rank + 1)) in
  let frac = rank -. Float.of_int (truncate rank) in
  (float_of_int lo +. (frac *. float_of_int (hi - lo)), lo, hi)

let obs_q_arb =
  QCheck.(
    pair
      (list_of_size Gen.(1 -- 80) (int_bound 5000))
      (make ~print:string_of_float Gen.(float_bound_inclusive 1.0)))

let prop_hist_quantile_vs_oracle =
  QCheck.Test.make ~count:500 ~name:"Histogram.quantile tracks the oracle"
    obs_q_arb (fun (obs, q) ->
      let h = Histogram.create "h" in
      List.iter (Histogram.observe h) obs;
      let sorted = Array.of_list (List.sort compare obs) in
      let oracle, olo, ohi = oracle_quantile sorted q in
      let got = Histogram.quantile h q in
      (* the histogram only knows log2 buckets: the readout must land in
         the value range spanned by the two order statistics' buckets,
         and hit the oracle exactly at the extremes *)
      let lo_bound = float_of_int (Histogram.bucket_lo (Histogram.bucket_of_value olo)) in
      let hi_bound =
        Float.min
          (float_of_int (Histogram.bucket_hi (Histogram.bucket_of_value ohi)))
          (float_of_int (Histogram.max_value h))
      in
      if q = 0.0 || q = 1.0 then got = oracle
      else got >= lo_bound && got <= hi_bound)

let prop_latency_quantile_vs_oracle =
  QCheck.Test.make ~count:500 ~name:"Latency.quantile tracks the oracle"
    obs_q_arb (fun (obs, q) ->
      let h = Latency.create "l" in
      List.iter (Latency.observe h) obs;
      let sorted = Array.of_list (List.sort compare obs) in
      let oracle, olo, ohi = oracle_quantile sorted q in
      let got = Latency.quantile h q in
      let lo_bound = fst (Latency.bucket_bounds (Latency.bucket_of_value olo)) in
      let hi_bound =
        min
          (snd (Latency.bucket_bounds (Latency.bucket_of_value ohi)))
          (Latency.max_value h)
      in
      if q = 0.0 || q = 1.0 then got = oracle
      else got >= float_of_int lo_bound && got <= float_of_int hi_bound)

let test_latency_small_values_exact =
  Helpers.qt "Latency: values below 64 are recorded exactly" `Quick (fun () ->
      let h = Latency.create "l" in
      List.iter (Latency.observe h) [ 3; 17; 42; 63 ];
      (* at whole ranks (q = i/(n-1)) the readout is the order statistic
         itself: sub-64 values live in unit-width buckets *)
      List.iteri
        (fun i (q, want) ->
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "q%d" i)
            want (Latency.quantile h q))
        [
          (0.0, 3.0);
          (1.0 /. 3.0, 17.0);
          (2.0 /. 3.0, 42.0);
          (1.0, 63.0);
          (* a fractional rank interpolates within the unit bucket of the
             floor-rank order statistic *)
          (0.5, 17.5);
        ])

let latency_of_list obs =
  let h = Latency.create "l" in
  List.iter (Latency.observe h) obs;
  h

let obs_arb = QCheck.(list_of_size Gen.(0 -- 60) (int_bound 100_000))

let prop_latency_merge_laws =
  QCheck.Test.make ~count:300 ~name:"Latency.merge monoid laws"
    QCheck.(pair obs_arb obs_arb)
    (fun (xs, ys) ->
      let a = latency_of_list xs and b = latency_of_list ys in
      let ab = Latency.merge a b and ba = Latency.merge b a in
      let zero = Latency.create "l" in
      Latency.equal ab ba
      && Latency.equal (Latency.merge a zero) a
      && Latency.count ab = Latency.count a + Latency.count b
      && Latency.equal ab (latency_of_list (xs @ ys)))

let test_latency_merge_name_mismatch =
  Helpers.qt "Latency.merge rejects name mismatch, merge_as waives it" `Quick
    (fun () ->
      let a = Latency.create "a" and b = Latency.create "b" in
      Alcotest.check_raises "mismatch raises"
        (Invalid_argument "Latency.merge: a vs b") (fun () ->
          ignore (Latency.merge a b));
      Latency.observe a 5;
      Latency.observe b 9;
      let g = Latency.merge_as "global" a b in
      Alcotest.(check string) "renamed" "global" (Latency.name g);
      Alcotest.(check int) "merged count" 2 (Latency.count g))

let prop_latency_quantiles_ordered =
  QCheck.Test.make ~count:300 ~name:"Latency: p50 <= p99 <= p999 <= max"
    obs_arb (fun obs ->
      let h = latency_of_list obs in
      Latency.p50 h <= Latency.p99 h
      && Latency.p99 h <= Latency.p999 h
      && Latency.p999 h <= float_of_int (Latency.max_value h))

(* ------------------------------------------------------------------ *)
(* Clock + sliding windows                                             *)
(* ------------------------------------------------------------------ *)

let test_virtual_clock =
  Helpers.qt "virtual clock advances only when told" `Quick (fun () ->
      let c = Clock.virtual_ ~start_ns:100 () in
      Alcotest.(check bool) "is virtual" true (Clock.is_virtual c);
      Alcotest.(check int) "start" 100 (Clock.now_ns c);
      Clock.advance c 50;
      Clock.advance c 0;
      Clock.advance c (-10);
      Alcotest.(check int) "monotone advance" 150 (Clock.now_ns c);
      let m = Clock.monotonic () in
      Alcotest.(check bool) "monotonic is not virtual" false (Clock.is_virtual m);
      Clock.advance m 1_000_000;
      ())

let test_window_rates =
  Helpers.qt "sliding window closes, zero-fills and rates" `Quick (fun () ->
      let w = Window.create ~window_ns:100 ~windows:4 in
      Alcotest.(check (float 0.0)) "empty rate" 0.0 (Window.rate w);
      Window.record w ~now_ns:10 5;
      Window.record w ~now_ns:90 5;
      Alcotest.(check int) "nothing closed yet" 0 (Window.closed w);
      (* crossing into window 1 closes window 0 with 10 ops *)
      Window.record w ~now_ns:110 2;
      Alcotest.(check int) "one closed" 1 (Window.closed w);
      Alcotest.(check int) "last window ops" 10 (Window.last_window_ops w);
      Alcotest.(check (float 1e-6)) "rate 10 ops / 100 ns"
        (10.0 /. (100.0 /. 1e9))
        (Window.rate w);
      (* jumping to window 5 closes 1..4; 2..4 are zero-filled stalls *)
      ignore (Window.roll w ~now_ns:510);
      Alcotest.(check int) "five closed" 5 (Window.closed w);
      Alcotest.(check int) "stall window" 0 (Window.last_window_ops w);
      Alcotest.(check (float 1e-6)) "stall collapses the rate"
        (2.0 /. (400.0 /. 1e9))
        (Window.rate w);
      Alcotest.(check int) "total includes open window" 12 (Window.total w))

(* ------------------------------------------------------------------ *)
(* Strict NDJSON checking (known-kind whitelist + --lax)               *)
(* ------------------------------------------------------------------ *)

(* One event per constructor: any rename or field change must be a
   conscious decision (this pin + the checker whitelist both move). *)
let one_of_each =
  [
    Event.Malloc { tool = "t"; base = 64; size = 32; kind = "heap" };
    Event.Free { tool = "t"; addr = 64 };
    Event.Access { tool = "t"; addr = 72; width = 8; path = Event.Fast };
    Event.Shadow_load { tool = "t"; count = 2 };
    Event.Cache_hit { tool = "t"; off = 8 };
    Event.Cache_update { tool = "t"; ub = 96 };
    Event.Region_check { tool = "t"; lo = 64; hi = 96; path = Event.Slow; loads = 3 };
    Event.Report { tool = "t"; kind = "heap-buffer-overflow"; addr = 96 };
    Event.Phase_begin { name = "p" };
    Event.Phase_end { name = "p" };
    Event.Service_op
      { tenant = 1; op = "access"; slot = 3; arg = 8; width = 4;
        latency_ns = 41; t_ns = 1000 };
    Event.Service_report
      { tenant = 1; kind = "heap-use-after-free"; addr = 128; t_ns = 1001 };
    Event.Slo_breach
      { tenant = 1; slo = "p999"; value = 9000.0; limit = 5000.0; t_ns = 1002 };
    Event.Tenant_state { tenant = 1; state = "degraded"; t_ns = 1003 };
    Event.Tenant_fault { tenant = 1; detail = "seg 8: drift"; t_ns = 1004 };
    Event.Tenant_backend { tenant = 1; backend = "pac"; t_ns = 1005 };
  ]

let test_every_event_kind_passes_strict =
  Helpers.qt "one event per constructor passes the strict checker" `Quick
    (fun () ->
      let lines =
        Export.ndjson_lines (List.mapi (fun i e -> (i, e)) one_of_each)
      in
      Alcotest.(check int) "covers the whole whitelist"
        (List.length Event.all_names)
        (List.length one_of_each);
      List.iter
        (fun name ->
          Alcotest.(check bool)
            (Printf.sprintf "kind %s rendered" name)
            true
            (List.exists
               (fun l ->
                 Helpers.contains l (Printf.sprintf "\"ev\":%S" name))
               lines))
        Event.all_names;
      match Export.check_ndjson (String.concat "\n" lines) with
      | Ok n -> Alcotest.(check int) "all accepted" (List.length lines) n
      | Error e -> Alcotest.fail e)

let test_unknown_kind_rejected =
  Helpers.qt "unknown event kinds: named error strictly, accepted lax" `Quick
    (fun () ->
      let bogus = {|{"seq":0,"ev":"wormhole","tenant":3}|} in
      (match Export.check_ndjson bogus with
      | Ok _ -> Alcotest.fail "strict checker accepted an unknown kind"
      | Error e ->
        Alcotest.(check bool) "names the kind" true
          (Helpers.contains e "unknown event kind" && Helpers.contains e "wormhole"));
      (match Export.check_ndjson ~lax:true bogus with
      | Ok n -> Alcotest.(check int) "lax accepts" 1 n
      | Error e -> Alcotest.fail e);
      (* lax still demands well-formed lines *)
      match Export.check_ndjson ~lax:true {|{"seq":-1,"ev":"wormhole"}|} with
      | Ok _ -> Alcotest.fail "lax accepted a negative seq"
      | Error _ -> ())

(* summary.json must key its tool rows by name, not registration order:
   the same backends reported in any order — or the same backend reported
   twice (two instances) — must render byte-identically, with duplicate
   rows merged. This was a real bug: rows used to be labelled by position,
   so skipping one backend shifted every later label. *)
let test_summary_keys_rows_by_name =
  Helpers.qt "summary.json keys tool rows by name, merging duplicates" `Quick
    (fun () ->
      let row name checks =
        (name, [ ("total_checks", checks) ], Histogram.create_set ())
      in
      let a = [ row "asan" 5; row "giantsan" 7; row "pac" 2 ] in
      let b = [ row "pac" 2; row "asan" 5; row "giantsan" 7 ] in
      Alcotest.(check string) "order-independent"
        (Export.summary_json ~tools:a ())
        (Export.summary_json ~tools:b ());
      let doubled = Export.summary_json ~tools:[ row "pac" 2; row "pac" 3 ] () in
      Alcotest.(check bool) "duplicate names merge (counters summed)" true
        (Helpers.contains doubled "\"total_checks\":5");
      let occurrences needle hay =
        let nl = String.length needle in
        let rec go i n =
          if i + nl > String.length hay then n
          else if String.sub hay i nl = needle then go (i + 1) (n + 1)
          else go (i + 1) n
        in
        go 0 0
      in
      Alcotest.(check int) "merged row appears exactly once" 1
        (occurrences "\"tool\":\"pac\"" doubled);
      (* dropping a backend must not relabel the others *)
      let without = Export.summary_json ~tools:[ row "asan" 5; row "pac" 2 ] () in
      Alcotest.(check bool) "asan row survives giantsan's absence" true
        (Helpers.contains without "\"tool\":\"asan\"");
      Alcotest.(check bool) "pac row survives giantsan's absence" true
        (Helpers.contains without "\"tool\":\"pac\""))

(* {1 Parser totality} *)

let json_tokens =
  [
    "{"; "}"; "["; "]"; ","; ":"; "\"k\""; "\"a b\""; "\""; "\\"; "\\n";
    "\\u00e9"; "\\u12"; "\\u1_23"; "true"; "false"; "null"; "nul"; "0"; "-0";
    "12"; "007"; "1.5"; "-2.5e3"; "1e400"; "-1e400"; "1e-400"; "1e15";
    "1234567890123456.0"; "4611686018427387903"; "99999999999999999999"; "-";
    "."; "e"; "+"; " "; "\n"; "x";
  ]

(* Printed random values, with the floats, ints and strings printing
   is easiest to get wrong. *)
let gen_json_text =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) (oneof [ small_signed_int; oneofl [ max_int; min_int ] ]);
        map
          (fun f -> Json.Float f)
          (oneof
             [
               float;
               oneofl
                 [ 1e15; -1e15; 1e16; 1234567890123456.; 0.1; -0.; 5e-324; 1e300 ];
             ]);
        map (fun s -> Json.Str s) (string_size ~gen:char (int_bound 6));
      ]
  in
  let value =
    fix
      (fun self depth ->
        if depth = 0 then leaf
        else
          frequency
            [
              (3, leaf);
              (1, map (fun l -> Json.List l) (list_size (int_bound 3) (self (depth - 1))));
              ( 1,
                map
                  (fun kvs -> Json.Obj kvs)
                  (list_size (int_bound 3)
                     (pair (string_size ~gen:char (int_bound 3)) (self (depth - 1)))) );
            ])
      3
  in
  map Json.to_string value

(* [Json.parse] never raises, and every value it returns prints and
   parses back to itself. *)
let prop_json_parse_total =
  Helpers.q "json parse: total, and every value round-trips"
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(
         frequency
           [
             (2, list_size (int_bound 16) (oneofl json_tokens) >|= String.concat "");
             (1, gen_json_text);
           ]))
    (fun text ->
      match Json.parse text with
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)
      | Error _ -> true
      | Ok v -> (
        match Json.parse (Json.to_string v) with
        | Ok v' -> v' = v
        | Error e -> QCheck.Test.fail_reportf "render %S: %s" (Json.to_string v) e))

let test_json_named_errors () =
  List.iter
    (fun (text, want) ->
      match Json.parse text with
      | Ok v -> Alcotest.failf "accepted %S as %s" text (Json.to_string v)
      | Error e ->
        Alcotest.(check bool) (Printf.sprintf "%S: %s" text e) true
          (Helpers.contains e want))
    [
      ("1e400", "out of range");
      ("[-1e400]", "out of range");
      (String.make 100_000 '[', "too deep");
      (String.concat "" (List.init 1000 (fun _ -> "{\"a\":")), "too deep");
      ({|"\u1_23"|}, "bad \\u escape");
      ({|"\u+123"|}, "bad \\u escape");
      ({|"\u 123"|}, "bad \\u escape");
      ({|"\u0x12"|}, "bad \\u escape");
      ({|"\u12"|}, "truncated \\u escape");
      ({|"\ud83d"|}, "lone surrogate");
      ({|"\ude00"|}, "lone surrogate");
      ({|"\ud83dx"|}, "lone surrogate");
      ({|"\ud83dA"|}, "lone surrogate");
      ({|"\ud83d\ud83d"|}, "lone surrogate");
      ({|"\ud83d\u12"|}, "truncated \\u escape");
    ];
  (* an integral float of 16 digits keeps its float mark *)
  let v = Json.List [ Json.Float 1e15; Json.Float (-1234567890123456.) ] in
  match Json.parse (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) (Json.to_string v) true (v = v')
  | Error e -> Alcotest.fail e

(* The BENCH_giantsan.json readers never raise, on JSON soup or on
   documents of the right shape with fields missing or mistyped; service
   rows they accept print and parse back unchanged. *)
let prop_bench_parsers_total =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        map (fun i -> Json.Int i) (int_range (-3) 100_000);
        map (fun f -> Json.Float f) (float_range (-1e3) 1e9);
        map (fun s -> Json.Str s) (oneofl [ "total"; "t0"; "" ]);
        return Json.Null;
        return (Json.List []);
      ]
  in
  let row fields =
    map
      (fun kvs -> Json.Obj (List.filter_map Fun.id kvs))
      (flatten_l
         (List.map
            (fun k -> frequency [ (8, map (fun v -> Some (k, v)) scalar); (1, return None) ])
            fields))
  in
  let doc =
    frequency
      [
        (1, map (String.concat "") (list_size (int_bound 16) (oneofl json_tokens)));
        ( 3,
          map2
            (fun service profiles ->
              Json.to_string
                (Json.Obj [ ("service", Json.List service); ("profiles", Json.List profiles) ]))
            (list_size (int_bound 3)
               (row
                  [
                    "scope"; "tenants"; "windows"; "ops"; "errors"; "breaches";
                    "ops_per_sec"; "latency_p50"; "latency_p99"; "latency_p999";
                  ]))
            (list_size (int_bound 3)
               (row ("profile" :: "config" :: "ns_per_op" :: Export.gate_count_fields))) );
      ]
  in
  Helpers.q "bench parsers: total, and service rows round-trip"
    (QCheck.make ~print:Fun.id doc)
    (fun text ->
      match (Export.parse_bench_service text, Export.parse_bench_profiles text) with
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)
      | Ok rows, _ ->
        Export.parse_bench_service
          (Export.bench_json ~profiles:[] ~service:rows ())
        = Ok rows
      | Error _, _ -> true)

(* Events with hostile fields: strings of any byte (quotes, backslashes,
   control and high bytes), ints at the ends of the range, floats that
   print as null. *)
let gen_event =
  let open QCheck.Gen in
  let str = oneof [ string_size ~gen:char (int_bound 8); oneofl [ ""; "\"\\"; "\x00\x1f\x7f\xff" ] ] in
  let int = oneof [ small_signed_int; oneofl [ max_int; min_int; 0 ] ] in
  let path = oneofl [ Event.Fast; Event.Slow ] in
  let fl = oneof [ float; oneofl [ Float.nan; Float.infinity; 0.5 ] ] in
  oneof
    [
      map3 (fun tool base (size, kind) -> Event.Malloc { tool; base; size; kind })
        str int (pair int str);
      map2 (fun tool addr -> Event.Free { tool; addr }) str int;
      map3 (fun tool (addr, width) path -> Event.Access { tool; addr; width; path })
        str (pair int int) path;
      map2 (fun tool count -> Event.Shadow_load { tool; count }) str int;
      map2 (fun tool off -> Event.Cache_hit { tool; off }) str int;
      map2 (fun tool ub -> Event.Cache_update { tool; ub }) str int;
      map3
        (fun tool (lo, hi) (path, loads) -> Event.Region_check { tool; lo; hi; path; loads })
        str (pair int int) (pair path int);
      map3 (fun tool kind addr -> Event.Report { tool; kind; addr }) str str int;
      map (fun name -> Event.Phase_begin { name }) str;
      map (fun name -> Event.Phase_end { name }) str;
      map3
        (fun (tenant, op) (slot, arg, width) (latency_ns, t_ns) ->
          Event.Service_op { tenant; op; slot; arg; width; latency_ns; t_ns })
        (pair int str) (triple int int int) (pair int int);
      map3 (fun tenant (kind, addr) t_ns -> Event.Service_report { tenant; kind; addr; t_ns })
        int (pair str int) int;
      map3
        (fun (tenant, slo) (value, limit) t_ns ->
          Event.Slo_breach { tenant; slo; value; limit; t_ns })
        (pair int str) (pair fl fl) int;
      map3 (fun tenant state t_ns -> Event.Tenant_state { tenant; state; t_ns }) int str int;
      map3 (fun tenant detail t_ns -> Event.Tenant_fault { tenant; detail; t_ns }) int str int;
      map3 (fun tenant backend t_ns -> Event.Tenant_backend { tenant; backend; t_ns })
        int str int;
    ]

let ndjson_tokens =
  json_tokens
  @ [ "\"ev\""; "\"seq\""; "\"tool\""; "\\u1_23"; "\\ud83d"; "\\ude00"; "\\ud83d\\ude00" ]
  @ List.map (Printf.sprintf "%S") Event.all_names

(* The NDJSON checkers never raise, on token soup or on mutated valid
   lines (a byte dropped, replaced or inserted, a token spliced in, the
   line cut short); every line [Export.ndjson_lines] prints is accepted,
   and a document of such lines counts them all. *)
let prop_ndjson_total =
  let open QCheck.Gen in
  let mutate line =
    let n = String.length line in
    int_bound (max 0 (n - 1)) >>= fun i ->
    oneof
      [
        return (String.sub line 0 i ^ String.sub line (i + 1) (n - i - 1));
        map (fun c -> String.sub line 0 i ^ String.make 1 c ^ String.sub line (i + 1) (n - i - 1)) char;
        map (fun t -> String.sub line 0 i ^ t ^ String.sub line i (n - i)) (oneofl ndjson_tokens);
        return (String.sub line 0 i);
      ]
  in
  let valid = list_size (int_range 1 4) (pair (int_bound 1_000_000) gen_event) in
  let soup = list_size (int_bound 16) (oneofl ndjson_tokens) >|= String.concat "" in
  let case =
    valid >>= fun events ->
    let lines = Export.ndjson_lines events in
    list_size (int_bound 3) (oneof [ soup; oneofl lines >>= mutate ]) >|= fun noise ->
    (lines, noise)
  in
  Helpers.q "ndjson checkers: total, and every printed line is accepted"
    (QCheck.make
       ~print:(fun (lines, noise) -> String.concat "\n" (lines @ ("--" :: noise)))
       case)
    (fun (lines, noise) ->
      let total f x =
        match f x with
        | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)
        | r -> r
      in
      List.iter
        (fun l ->
          match total (Export.check_ndjson_line ~lax:false) l with
          | Ok () -> ()
          | Error e -> QCheck.Test.fail_reportf "rejected %S: %s" l e)
        lines;
      List.iter
        (fun l ->
          ignore (total (Export.check_ndjson_line ~lax:false) l);
          ignore (total (Export.check_ndjson_line ~lax:true) l))
        noise;
      (match total (Export.check_ndjson ~lax:false) (String.concat "\n" lines) with
      | Ok n when n = List.length lines -> ()
      | Ok n -> QCheck.Test.fail_reportf "counted %d of %d lines" n (List.length lines)
      | Error e -> QCheck.Test.fail_reportf "document rejected: %s" e);
      ignore (total (Export.check_ndjson ~lax:false) (String.concat "\n" (lines @ noise)));
      ignore (total (Export.check_ndjson ~lax:true) (String.concat "\n" (noise @ lines)));
      true)

(* [\u] escapes decode to UTF-8, surrogate pairs combined; the
   malformed ones are in [test_json_named_errors]. *)
let test_json_unicode_escapes () =
  List.iter
    (fun (text, want) ->
      match Json.parse text with
      | Ok (Json.Str s) -> Alcotest.(check string) text want s
      | Ok v -> Alcotest.failf "%S parsed as %s" text (Json.to_string v)
      | Error e -> Alcotest.failf "%S: %s" text e)
    [
      ({|"\u0041"|}, "A");
      ({|"\u001f"|}, "\x1f");
      ({|"\u00e9"|}, "\xc3\xa9");
      ({|"\u00E9"|}, "\xc3\xa9");
      ({|"\u20ac"|}, "\xe2\x82\xac");
      ({|"\uffff"|}, "\xef\xbf\xbf");
      ({|"\ud83d\ude00"|}, "\xf0\x9f\x98\x80");
      ({|"\uDBFF\uDFFF"|}, "\xf4\x8f\xbf\xbf");
      ({|"a\u0000b"|}, "a\x00b");
    ];
  (* the same escapes inside a trace line *)
  (match Export.check_ndjson_line {|{"seq":0,"ev":"report","tool":"\u1_23"}|} with
  | Ok () -> Alcotest.fail "trace line with \\u1_23 accepted"
  | Error e -> Alcotest.(check bool) e true (Helpers.contains e "bad \\u escape"));
  match Export.check_ndjson_line {|{"seq":0,"ev":"report","tool":"\u00e9\ud83d\ude00"}|} with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let suite =
  ( "telemetry",
    [
      test_ring_wraparound;
      test_ring_under_capacity;
      test_ring_property;
      test_bucket_boundaries;
      test_hist_merge_commutative;
      test_hist_merge_associative;
      test_hist_merge_identity;
      test_hist_merge_counts;
      test_hist_name_mismatch;
      test_json_roundtrip;
      test_json_rejects;
      test_json_nonfinite;
      test_trace_deterministic;
      test_trace_covers_all_tools;
      test_trace_lines_valid_ndjson;
      test_with_capture_restores;
      test_disabled_path_allocates_nothing;
      test_gate_identical_passes;
      test_gate_tolerates_small_ns_drift;
      test_gate_rejects_ns_regression;
      test_gate_rejects_large_improvement;
      test_gate_rejects_count_mismatch;
      test_gate_rejects_missing_rows;
      QCheck_alcotest.to_alcotest prop_hist_quantile_vs_oracle;
      QCheck_alcotest.to_alcotest prop_latency_quantile_vs_oracle;
      test_latency_small_values_exact;
      QCheck_alcotest.to_alcotest prop_latency_merge_laws;
      test_latency_merge_name_mismatch;
      QCheck_alcotest.to_alcotest prop_latency_quantiles_ordered;
      test_virtual_clock;
      test_window_rates;
      test_every_event_kind_passes_strict;
      test_unknown_kind_rejected;
      test_summary_keys_rows_by_name;
      test_gate_is_per_domain;
      test_gate_count_consistent;
      Helpers.qt "gate: every rule holds on the committed baseline" `Quick
        test_gate_rules_pass_on_baseline;
      Helpers.qt "gate: each rule fails alone with its own message" `Quick
        test_gate_rules_fail_alone;
      Helpers.qt "gate: missing fig11/fuzzmode rows are an error" `Quick
        test_gate_missing_rows_are_errors;
      Helpers.qt "gate: retired groups/spans sections are ignored" `Quick
        test_gate_ignores_retired_sections;
      prop_json_parse_total;
      Helpers.qt "json: out-of-range numbers and deep nesting are errors" `Quick
        test_json_named_errors;
      prop_bench_parsers_total;
      prop_ndjson_total;
      Helpers.qt "json: \\u escapes decode to UTF-8"
        `Quick test_json_unicode_escapes;
    ] )
