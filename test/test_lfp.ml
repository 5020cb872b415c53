(* The LFP baseline: size-class bounds, their false negatives, and the
   behaviours Table 3 relies on. *)

module San = Giantsan_sanitizer.Sanitizer
module Memsim = Giantsan_memsim
module Size_class = Giantsan_lfp.Size_class

let test_size_classes () =
  Alcotest.(check int) "min class" 16 (Size_class.round_up 1);
  Alcotest.(check int) "exact" 16 (Size_class.round_up 16);
  Alcotest.(check int) "17 -> 20" 20 (Size_class.round_up 17);
  Alcotest.(check int) "600 -> 640" 640 (Size_class.round_up 600);
  Alcotest.(check int) "1024 exact" 1024 (Size_class.round_up 1024);
  Alcotest.(check int) "1025 -> 1280" 1280 (Size_class.round_up 1025)

(* The doubling loop [round_up] replaced, kept as its reference twin. *)
let round_up_loop size =
  if size <= 16 then 16
  else begin
    let p = ref 16 in
    while !p * 2 < size do
      p := !p * 2
    done;
    let q = !p / 4 in
    let steps = (size - !p + q - 1) / q in
    !p + (steps * q)
  end

let test_round_up_matches_loop () =
  let check size =
    if Size_class.round_up size <> round_up_loop size then
      Alcotest.failf "round_up %d = %d, loop says %d" size
        (Size_class.round_up size) (round_up_loop size)
  in
  for size = 0 to 1 lsl 16 do
    check size
  done;
  List.iter (fun size -> if size >= 0 then check size)
    (Helpers.pow2_edges ~max_bits:40)

let test_class_props =
  Helpers.q "round_up is a sound class"
    QCheck.(int_range 0 100000)
    (fun size ->
      let c = Size_class.round_up size in
      c >= size && c >= 16 && Size_class.is_class_size c
      && Size_class.slack size = c - size)

let test_class_slack_bounded =
  Helpers.q "slack < size/4 + 16"
    QCheck.(int_range 1 100000)
    (fun size -> Size_class.slack size <= (size / 4) + 16)

let fresh size =
  let san = Helpers.lfp ~config:Helpers.small_config () in
  let obj = san.San.malloc size in
  (san, obj.Memsim.Memobj.base)

let test_inbounds () =
  let san, base = fresh 100 in
  Alcotest.(check bool) "inside" true
    (Helpers.check_is_safe (san.San.access ~base ~addr:(base + 50) ~width:4))

let test_slack_false_negative () =
  (* char p[600]: rounded to 640 -> p[610] is missed, p[700] is caught *)
  let san, base = fresh 600 in
  Alcotest.(check bool) "inside slack: missed" true
    (Helpers.check_is_safe (san.San.access ~base ~addr:(base + 610) ~width:1));
  Alcotest.(check bool) "beyond class: caught" false
    (Helpers.check_is_safe (san.San.access ~base ~addr:(base + 700) ~width:1))

let test_underflow_detected () =
  let san, base = fresh 100 in
  Alcotest.(check bool) "below base" false
    (Helpers.check_is_safe (san.San.access ~base ~addr:(base - 1) ~width:1))

let test_uaf_detected () =
  let san, base = fresh 64 in
  ignore (san.San.free base);
  Alcotest.(check bool) "freed slot" false
    (Helpers.check_is_safe (san.San.access ~base ~addr:(base + 8) ~width:4))

let test_free_errors_detected () =
  let san, base = fresh 64 in
  (match san.San.free (base + 8) with
  | Some r ->
    Alcotest.(check string) "free-not-at-start" "free-not-at-start"
      (Giantsan_sanitizer.Report.kind_name r.Giantsan_sanitizer.Report.kind)
  | None -> Alcotest.fail "free-not-at-start missed");
  ignore (san.San.free base);
  match san.San.free base with
  | Some _ -> ()
  | None -> Alcotest.fail "double free missed"

let test_region_check_constant_cost () =
  let san, base = fresh 2048 in
  Alcotest.(check bool) "large region ok" true
    (Helpers.check_is_safe (san.San.check_region ~lo:base ~hi:(base + 2048)));
  Alcotest.(check int) "no shadow memory at all" 0 (san.San.shadow_loads ())

let test_lfp_never_false_positive =
  (* LFP over-approximates: anything the oracle allows, LFP must allow *)
  Helpers.q "no false positives"
    QCheck.(pair small_int (list_of_size (Gen.int_range 1 15) (pair small_nat small_nat)))
    (fun (seed, picks) ->
      let rng = Giantsan_util.Rng.create seed in
      let san, live, _ = Helpers.random_scene rng Helpers.lfp in
      let objects = Array.of_list live in
      if Array.length objects = 0 then true
      else
        List.for_all
          (fun (obj_pick, off_pick) ->
            let obj = objects.(obj_pick mod Array.length objects) in
            let base = obj.Memsim.Memobj.base in
            let off = off_pick mod (max 1 obj.Memsim.Memobj.size) in
            Helpers.check_is_safe (san.San.access ~base ~addr:(base + off) ~width:1))
          picks)

let test_lfp_vs_giantsan_detection_gap () =
  (* the Table 3 story in miniature: small overflows over a range of sizes *)
  let missed_by_lfp = ref 0 and missed_by_gs = ref 0 in
  let sizes = [ 10; 25; 33; 60; 100; 130; 250; 600; 1000 ] in
  List.iter
    (fun size ->
      let lfp = Helpers.lfp ~config:Helpers.small_config () in
      let gs = Helpers.giantsan ~config:Helpers.small_config () in
      let lo = lfp.San.malloc size and go = gs.San.malloc size in
      let l_base = lo.Memsim.Memobj.base and g_base = go.Memsim.Memobj.base in
      (* off-by-one write, the classic Juliet shape *)
      if Helpers.check_is_safe (lfp.San.access ~base:l_base ~addr:(l_base + size) ~width:1)
      then incr missed_by_lfp;
      if Helpers.check_is_safe (gs.San.access ~base:g_base ~addr:(g_base + size) ~width:1)
      then incr missed_by_gs)
    sizes;
  Alcotest.(check int) "GiantSan misses none" 0 !missed_by_gs;
  Alcotest.(check bool)
    (Printf.sprintf "LFP misses most (%d/%d)" !missed_by_lfp (List.length sizes))
    true
    (!missed_by_lfp >= 7)

let suite =
  ( "lfp",
    [
      Helpers.qt "size classes" `Quick test_size_classes;
      Helpers.qt "round_up = the doubling loop" `Quick
        test_round_up_matches_loop;
      test_class_props;
      test_class_slack_bounded;
      Helpers.qt "in-bounds pass" `Quick test_inbounds;
      Helpers.qt "slack hides overflows (BBC's p[700])" `Quick
        test_slack_false_negative;
      Helpers.qt "underflow detected" `Quick test_underflow_detected;
      Helpers.qt "freed slot detected" `Quick test_uaf_detected;
      Helpers.qt "free errors detected" `Quick test_free_errors_detected;
      Helpers.qt "region checks cost no metadata" `Quick
        test_region_check_constant_cost;
      test_lfp_never_false_positive;
      Helpers.qt "off-by-one: LFP blind, GiantSan sharp" `Quick
        test_lfp_vs_giantsan_detection_gap;
    ] )
