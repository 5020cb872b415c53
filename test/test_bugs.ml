(* The bug corpora and detection harness (Tables 3-5). *)

module Scenario = Giantsan_bugs.Scenario
module Juliet = Giantsan_bugs.Juliet
module Cves = Giantsan_bugs.Cves
module Magma = Giantsan_bugs.Magma
module Harness = Giantsan_bugs.Harness
module Runner = Giantsan_workload.Runner
module Memobj = Giantsan_memsim.Memobj
module San = Giantsan_sanitizer.Sanitizer
module Report = Giantsan_sanitizer.Report

let take n l = List.filteri (fun i _ -> i < n) l

let test_corpus_sizes () =
  List.iter
    (fun cwe ->
      Alcotest.(check int)
        (Printf.sprintf "CWE %d corpus size" cwe)
        (Juliet.total cwe)
        (List.length (Juliet.buggy_cases cwe)))
    Juliet.cwe_ids;
  Alcotest.(check int) "grand total" 5948
    (List.fold_left (fun acc c -> acc + Juliet.total c) 0 Juliet.cwe_ids)

let test_corpus_labels_validate () =
  List.iter
    (fun cwe ->
      let errors =
        Harness.validate_corpus
          (Juliet.buggy_cases cwe @ Juliet.clean_cases cwe)
      in
      Alcotest.(check (list string))
        (Printf.sprintf "CWE %d labels" cwe)
        [] errors)
    Juliet.cwe_ids

let test_asan_family_detects_live_cases () =
  (* on a slice of each CWE: GiantSan/ASan/ASan-- detect every non-latent
     buggy case *)
  List.iter
    (fun cwe ->
      let cases = take 50 (Juliet.buggy_cases cwe) in
      let live = List.filter (fun c -> c.Scenario.sc_buggy) cases in
      List.iter
        (fun tool ->
          Alcotest.(check int)
            (Printf.sprintf "CWE %d %s" cwe (Runner.config_name tool))
            (List.length live)
            (Harness.count_detected tool live))
        [ Runner.Giantsan; Runner.Asan; Runner.Asanmm ])
    Juliet.cwe_ids

let test_no_false_positives_on_clean () =
  List.iter
    (fun cwe ->
      let clean = take 60 (Juliet.clean_cases cwe) in
      List.iter
        (fun tool ->
          Alcotest.(check int)
            (Printf.sprintf "CWE %d clean %s" cwe (Runner.config_name tool))
            0
            (Harness.false_positives tool clean))
        Harness.all_tools)
    Juliet.cwe_ids

let test_latent_cases_flagged_by_nobody () =
  let latent =
    List.filter
      (fun c -> not c.Scenario.sc_buggy)
      (Juliet.buggy_cases 121 @ Juliet.buggy_cases 126)
  in
  Alcotest.(check int) "latent population" 12 (List.length latent);
  List.iter
    (fun tool ->
      Alcotest.(check int)
        (Runner.config_name tool ^ " stays silent")
        0
        (Harness.count_detected tool latent))
    Harness.all_tools

let test_lfp_blindness_pattern () =
  (* LFP misses overflow/overread inside slack, sees everything on the
     low side: the Table 3 fingerprint *)
  let heap_ov = take 100 (Juliet.buggy_cases 122) in
  let underwrite = take 100 (Juliet.buggy_cases 124) in
  let lfp_ov = Harness.count_detected Runner.Lfp heap_ov in
  Alcotest.(check bool)
    (Printf.sprintf "LFP nearly blind to heap overflow (%d/100)" lfp_ov)
    true (lfp_ov <= 5);
  Alcotest.(check int) "LFP sees every underwrite" 100
    (Harness.count_detected Runner.Lfp underwrite)

let test_cve_table_matches_paper () =
  let expected_lfp_misses =
    [ "CVE-2017-12858"; "CVE-2017-9165"; "CVE-2017-14409" ]
  in
  List.iter
    (fun (c : Cves.t) ->
      List.iter
        (fun tool ->
          let expect =
            match tool with
            | Runner.Lfp -> not (List.mem c.Cves.cve_id expected_lfp_misses)
            | _ -> true
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s under %s" c.Cves.cve_id (Runner.config_name tool))
            expect
            (Harness.detected tool c.Cves.cve_scenario))
        Harness.all_tools)
    Cves.all

let test_cve_count () =
  Alcotest.(check int) "25 scenario rows (Table 4's expanded ranges)" 25
    (List.length Cves.all)

let scaled_php =
  let p = List.hd Magma.projects in
  {
    p with
    Magma.mg_short = 40;
    mg_mid = 30;
    mg_far = 10;
    mg_latent = 20;
  }

let test_magma_php_mechanism () =
  let cases = Magma.cases scaled_php in
  Alcotest.(check int) "population" 100 (List.length cases);
  (* rz16 ASan: only the short jumps *)
  Alcotest.(check int) "ASan rz16" 40
    (Harness.count_detected ~redzone:16 Runner.Asan cases);
  (* rz512 recovers the mid jumps *)
  Alcotest.(check int) "ASan rz512" 70
    (Harness.count_detected ~redzone:512 Runner.Asan cases);
  (* the anchor catches everything non-latent at rz16 *)
  Alcotest.(check int) "GiantSan rz16" 80
    (Harness.count_detected ~redzone:16 Runner.Giantsan cases);
  (* ASan-- behaves like ASan on detection *)
  Alcotest.(check int) "ASan-- rz16" 40
    (Harness.count_detected ~redzone:16 Runner.Asanmm cases)

let test_magma_labels () =
  Alcotest.(check (list string)) "magma ground truth" []
    (Harness.validate_corpus (Magma.cases scaled_php))

let test_magma_totals_match_paper () =
  List.iter
    (fun p ->
      let expected =
        match p.Magma.mg_name with
        | "php" -> 3072
        | "libpng" -> 1881
        | "libtiff" -> 9858
        | "libxml2" -> 30574
        | "openssl" -> 1509
        | "sqlite3" -> 1528
        | "poppler" -> 10547
        | _ -> -1
      in
      Alcotest.(check int) (p.Magma.mg_name ^ " total") expected (Magma.total p))
    Magma.projects

(* ------------------------------------------------------------------ *)
(* Documented limitations (§5.4), demonstrated                          *)
(* ------------------------------------------------------------------ *)

let test_quarantine_bypass_window () =
  (* once a freed block leaves quarantine and is re-allocated, a stale
     pointer dereference is indistinguishable from a valid access — the
     common location-based blind spot the paper acknowledges. The newest
     entry is never self-evicted (budget 0 = one-deep quarantine), so a
     second free is what pushes the victim out. *)
  let san = Harness.make_sanitizer ~quarantine:0 Runner.Giantsan in
  let a = san.San.malloc 64 in
  let pa = a.Memobj.base in
  let b = san.San.malloc 64 in
  ignore (san.San.free pa);
  ignore (san.San.free b.Memobj.base);
  let c = san.San.malloc 64 in
  Alcotest.(check int) "block was recycled" pa c.Memobj.base;
  Alcotest.(check bool) "stale pointer access is missed" true
    (san.San.access ~base:pa ~addr:(pa + 8) ~width:8 = None);
  (* with a real quarantine budget the same flow is caught *)
  let san2 = Harness.make_sanitizer ~quarantine:4096 Runner.Giantsan in
  let a2 = san2.San.malloc 64 in
  let pa2 = a2.Memobj.base in
  ignore (san2.San.free pa2);
  let _b2 = san2.San.malloc 64 in
  Alcotest.(check bool) "caught while quarantined" true
    (san2.San.access ~base:pa2 ~addr:(pa2 + 8) ~width:8 <> None)

let test_quarantine_uaf_large_block () =
  (* regression: a block bigger than the whole quarantine budget used to be
     bounced straight back out on free, so an immediate use-after-free was
     missed; the retained-newest rule keeps the detection window open *)
  let san = Harness.make_sanitizer ~quarantine:16 Runner.Giantsan in
  let a = san.San.malloc 64 in
  let pa = a.Memobj.base in
  ignore (san.San.free pa);
  (* a fresh same-size malloc must not reuse the quarantined block *)
  let b = san.San.malloc 64 in
  Alcotest.(check bool) "quarantined block not reused" true
    (b.Memobj.base <> pa);
  match san.San.access ~base:pa ~addr:(pa + 8) ~width:8 with
  | Some r ->
    Alcotest.(check string) "classified as UAF" "heap-use-after-free"
      (Report.kind_name r.Report.kind)
  | None -> Alcotest.fail "use-after-free missed despite budget < block_len"

let test_sub_object_insensitivity () =
  (* struct { char name[8]; int id; }: overflowing [name] into [id] stays
     inside the allocation — invisible to all location-based tools *)
  List.iter
    (fun tool ->
      let san = Harness.make_sanitizer tool in
      let obj = san.San.malloc 16 in
      let base = obj.Memobj.base in
      Alcotest.(check bool)
        (Runner.config_name tool ^ " cannot see sub-object overflow")
        true
        (san.San.access ~base ~addr:(base + 8) ~width:4 = None))
    Harness.all_tools

let test_softbound_precision_and_fragility () =
  let module Softbound = Giantsan_bugs.Softbound in
  (* with the tag intact, the pointer-based model is EXACT: it even sees an
     overflow that lands inside another object (no redzone involved) *)
  let far =
    {
      Scenario.sc_id = "sb_far";
      sc_cwe = 0;
      sc_buggy = true;
      sc_steps =
        [
          Scenario.Alloc { slot = 0; size = 32; kind = Memobj.Heap };
          Scenario.Alloc { slot = 1; size = 2048; kind = Memobj.Heap };
          Scenario.Access { slot = 0; off = 200; width = 1 };
        ];
    }
  in
  Alcotest.(check bool) "tagged: exact bounds catch the far jump" true
    (Softbound.run_with_laundering ~launder_slots:[] far);
  (* laundering the pointer silently disables everything *)
  Alcotest.(check bool) "laundered: nothing is checked" false
    (Softbound.run_with_laundering ~launder_slots:[ 0 ] far);
  (* ...including temporal checks *)
  let uaf =
    {
      Scenario.sc_id = "sb_uaf";
      sc_cwe = 416;
      sc_buggy = true;
      sc_steps =
        [
          Scenario.Alloc { slot = 0; size = 64; kind = Memobj.Heap };
          Scenario.Free_slot 0;
          Scenario.Access { slot = 0; off = 0; width = 8 };
        ];
    }
  in
  Alcotest.(check bool) "tagged UAF caught" true
    (Softbound.run_with_laundering ~launder_slots:[] uaf);
  Alcotest.(check bool) "laundered UAF missed" false
    (Softbound.run_with_laundering ~launder_slots:[ 0 ] uaf);
  (* while GiantSan does not care about laundering at all *)
  Alcotest.(check bool) "GiantSan catches both regardless" true
    (Harness.detected Runner.Giantsan far
    && Harness.detected Runner.Giantsan uaf)

let test_softbound_no_false_positives () =
  let module Softbound = Giantsan_bugs.Softbound in
  let module Difftest = Giantsan_bugs.Difftest in
  let ok = ref true in
  for seed = 0 to 99 do
    let sc = Difftest.gen_clean ~seed in
    if Softbound.run_with_laundering ~launder_slots:[] sc then ok := false
  done;
  Alcotest.(check bool) "clean scenarios stay clean" true !ok

let suite =
  ( "bugs",
    [
      Helpers.qt "Juliet corpus sizes match Table 3" `Quick test_corpus_sizes;
      Helpers.qt "corpus ground-truth labels validate" `Slow
        test_corpus_labels_validate;
      Helpers.qt "ASan family detects all live cases" `Quick
        test_asan_family_detects_live_cases;
      Helpers.qt "no false positives on clean twins" `Quick
        test_no_false_positives_on_clean;
      Helpers.qt "latent cases flagged by nobody" `Quick
        test_latent_cases_flagged_by_nobody;
      Helpers.qt "LFP blindness fingerprint" `Quick test_lfp_blindness_pattern;
      Helpers.qt "Table 4 verdicts match the paper" `Quick
        test_cve_table_matches_paper;
      Helpers.qt "Table 4 row count" `Quick test_cve_count;
      Helpers.qt "Magma: redzone-bypass mechanism" `Quick test_magma_php_mechanism;
      Helpers.qt "Magma: ground truth validates" `Quick test_magma_labels;
      Helpers.qt "Magma: totals match Table 5" `Quick test_magma_totals_match_paper;
      Helpers.qt "limitation: quarantine bypass" `Quick
        test_quarantine_bypass_window;
      Helpers.qt "quarantine: UAF caught at budget < block" `Quick
        test_quarantine_uaf_large_block;
      Helpers.qt "limitation: sub-object overflows" `Quick
        test_sub_object_insensitivity;
      Helpers.qt "softbound: precise but fragile (§2.1)" `Quick
        test_softbound_precision_and_fragility;
      Helpers.qt "softbound: no false positives" `Quick
        test_softbound_no_false_positives;
    ] )
