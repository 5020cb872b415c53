(* The ASan baseline: Example-1 check semantics, linear guardians, and
   oracle agreement. *)

module San = Giantsan_sanitizer.Sanitizer
module Counters = Giantsan_sanitizer.Counters
module Memsim = Giantsan_memsim

let fresh size =
  let san = Helpers.asan ~config:Helpers.small_config () in
  let obj = san.San.malloc size in
  (san, obj.Memsim.Memobj.base)

let test_inbounds_access () =
  let san, base = fresh 100 in
  for off = 0 to 92 do
    Alcotest.(check bool) "inbounds w8" true
      (Helpers.check_is_safe (san.San.access ~base:0 ~addr:(base + off) ~width:8))
  done

let test_overflow_byte () =
  let san, base = fresh 100 in
  Alcotest.(check bool) "just past end" false
    (Helpers.check_is_safe (san.San.access ~base:0 ~addr:(base + 100) ~width:1));
  Alcotest.(check bool) "crossing the end" false
    (Helpers.check_is_safe (san.San.access ~base:0 ~addr:(base + 96) ~width:8))

let test_underflow_byte () =
  let san, base = fresh 100 in
  Alcotest.(check bool) "byte before base" false
    (Helpers.check_is_safe (san.San.access ~base:0 ~addr:(base - 1) ~width:1))

let test_uaf_detected () =
  let san, base = fresh 64 in
  ignore (san.San.free base);
  match san.San.access ~base:0 ~addr:(base + 8) ~width:4 with
  | Some r ->
    Alcotest.(check string) "kind" "heap-use-after-free"
      (Giantsan_sanitizer.Report.kind_name r.Giantsan_sanitizer.Report.kind)
  | None -> Alcotest.fail "UAF missed"

let test_region_guardian_is_linear () =
  let san, base = fresh 1024 in
  let before = san.San.shadow_loads () in
  Alcotest.(check bool) "1 KiB region safe" true
    (Helpers.check_is_safe (san.San.check_region ~lo:base ~hi:(base + 1024)));
  let loads = san.San.shadow_loads () - before in
  (* the paper's example: checking 1KB costs 128 segment-state loads *)
  Alcotest.(check int) "128 loads for 1 KiB" 128 loads

let test_region_guardian_detects () =
  let san, base = fresh 1024 in
  Alcotest.(check bool) "overflowing region" false
    (Helpers.check_is_safe (san.San.check_region ~lo:base ~hi:(base + 1025)));
  Alcotest.(check bool) "region before object" false
    (Helpers.check_is_safe (san.San.check_region ~lo:(base - 8) ~hi:(base + 8)))

let test_redzone_bypass_false_negative () =
  (* the instruction-level blind spot the anchor enhancement fixes: a jump
     far past the 16-byte redzone can land in the NEXT object and pass *)
  let san = Helpers.asan ~config:Helpers.small_config () in
  let a = san.San.malloc 64 in
  let b = san.San.malloc 64 in
  let a_base = a.Memsim.Memobj.base and b_base = b.Memsim.Memobj.base in
  let jump = b_base - a_base + 8 in
  (* the same flawed index under GiantSan's anchored check is caught *)
  Alcotest.(check bool) "ASan misses the long jump" true
    (Helpers.check_is_safe (san.San.access ~base:a_base ~addr:(a_base + jump) ~width:4));
  let gs = Helpers.giantsan ~config:Helpers.small_config () in
  let ga = gs.San.malloc 64 in
  let _gb = gs.San.malloc 64 in
  let g_base = ga.Memsim.Memobj.base in
  Alcotest.(check bool) "GiantSan catches it via the anchor" false
    (Helpers.check_is_safe (gs.San.access ~base:g_base ~addr:(g_base + jump) ~width:4))

let test_partial_segment_semantics () =
  let san, base = fresh 13 in
  (* bytes 8..13 in a 5-partial segment *)
  Alcotest.(check bool) "within partial" true
    (Helpers.check_is_safe (san.San.access ~base:0 ~addr:(base + 12) ~width:1));
  Alcotest.(check bool) "past partial" false
    (Helpers.check_is_safe (san.San.access ~base:0 ~addr:(base + 13) ~width:1));
  Alcotest.(check bool) "crossing partial boundary" false
    (Helpers.check_is_safe (san.San.access ~base:0 ~addr:(base + 10) ~width:4))

let test_unaligned_crossing_blind_spot () =
  (* Known ASan false negative: an unaligned w<=8 access that starts in a
     good segment and crosses into a bad one is invisible to the
     single-shadow-byte check. GiantSan's CI inspects the full range. *)
  let san, base = fresh 96 in
  (* [93, 101): bytes 96..100 are out of bounds *)
  Alcotest.(check bool) "ASan misses the crossing access" true
    (Helpers.check_is_safe (san.San.access ~base:0 ~addr:(base + 93) ~width:8));
  let gs = Helpers.giantsan ~config:Helpers.small_config () in
  let go = gs.San.malloc 96 in
  let gbase = go.Memsim.Memobj.base in
  Alcotest.(check bool) "GiantSan catches it" false
    (Helpers.check_is_safe (gs.San.access ~base:0 ~addr:(gbase + 93) ~width:8))

let test_every_access_costs_a_load () =
  let san, base = fresh 256 in
  let before = san.San.shadow_loads () in
  for j = 0 to 31 do
    ignore (san.San.access ~base:0 ~addr:(base + (8 * j)) ~width:8)
  done;
  Alcotest.(check int) "one load per access" 32 (san.San.shadow_loads () - before)

(* oracle agreement for single accesses *)
let asan_agrees_with_oracle (seed, picks) =
  let rng = Giantsan_util.Rng.create seed in
  let san, live, freed = Helpers.random_scene rng Helpers.asan in
  let objects = Array.of_list (live @ freed) in
  if Array.length objects = 0 then true
  else
    List.for_all
      (fun (obj_pick, off_pick, w_pick) ->
        let obj = objects.(obj_pick mod Array.length objects) in
        let base = obj.Memsim.Memobj.base in
        let addr = base + (off_pick mod 400) - 60 in
        let width = [| 1; 2; 4; 8 |].(w_pick mod 4) in
        let arena_hi = Memsim.Arena.size (Memsim.Heap.arena san.San.heap) - 16 in
        if addr < 8 || addr + width > arena_hi then true
        else begin
          let said = Helpers.check_is_safe (san.San.access ~base:0 ~addr ~width) in
          let truth = Helpers.oracle_safe san ~lo:addr ~hi:(addr + width) in
          if (addr land 7) + width <= 8 then said = truth
          else
            (* segment-crossing unaligned access: real ASan only inspects
               the first shadow byte and can miss — never falsely report *)
            (not said) <= (not truth)
        end)
      picks

let test_asan_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"ASan access <=> oracle" ~count:300
       QCheck.(
         pair small_int
           (list_of_size (Gen.int_range 1 20) (triple small_nat small_nat small_nat)))
       asan_agrees_with_oracle)

(* both tools agree on every single-access verdict (same detection power at
   instruction level; the differences are about cost and long jumps) *)
let parity (seed, picks) =
  let rng1 = Giantsan_util.Rng.create seed in
  let rng2 = Giantsan_util.Rng.copy rng1 in
  let asan, a_live, a_freed = Helpers.random_scene rng1 Helpers.asan in
  let gs, _, _ = Helpers.random_scene rng2 Helpers.giantsan in
  let objects = Array.of_list (a_live @ a_freed) in
  if Array.length objects = 0 then true
  else
    List.for_all
      (fun (obj_pick, off_pick, w_pick) ->
        let obj = objects.(obj_pick mod Array.length objects) in
        let base = obj.Memsim.Memobj.base in
        let width = [| 1; 2; 4; 8 |].(w_pick mod 4) in
        (* width-aligned accesses (what compiled code emits): both tools
           have identical per-instruction verdicts there *)
        let addr = base + (((off_pick mod 200) - 30) / width * width) in
        let arena_hi = Memsim.Arena.size (Memsim.Heap.arena asan.San.heap) - 16 in
        if addr < 8 || addr + width > arena_hi then true
        else begin
          (* identical allocation sequences -> identical layouts *)
          let a = Helpers.check_is_safe (asan.San.access ~base:0 ~addr ~width) in
          let g = Helpers.check_is_safe (gs.San.access ~base:0 ~addr ~width) in
          a = g
        end)
      picks

let test_parity =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"ASan and GiantSan agree per instruction" ~count:200
       QCheck.(
         pair small_int
           (list_of_size (Gen.int_range 1 15) (triple small_nat small_nat small_nat)))
       parity)

(* Reference twin of [Asan_runtime.region_is_safe]: one bounds-checked
   [load] per segment of [lo, hi), stopping at the first bad one. The
   word-wide scan must agree with it on the verdict, the bad address and
   the loads charged. *)
module Shadow_mem = Giantsan_shadow.Shadow_mem
module E = Giantsan_asan.Asan_encoding

let region_is_safe_reference m ~lo ~hi =
  if hi <= lo then None
  else begin
    let first_seg = lo / 8 and last_seg = (hi - 1) / 8 in
    let bad = ref None in
    let seg = ref first_seg in
    while !bad = None && !seg <= last_seg do
      let v = Shadow_mem.load m !seg in
      let ok_upto = E.addressable_in_segment v in
      let seg_base = !seg * 8 in
      let want_from = Int.max lo seg_base
      and want_to = Int.min hi (seg_base + 8) in
      if want_to - seg_base > ok_upto then
        bad := Some (Int.max want_from (seg_base + ok_upto));
      incr seg
    done;
    !bad
  end

let poison_codes =
  [ E.heap_redzone; E.freed; E.stack_redzone; E.global_redzone; E.unallocated ]

(* A shadow of [segments] codes: zero runs broken by partial codes 1-7 and
   every poison code, at a density from none to every other segment. The
   fill is ASan's own, zero, or a partial code (a partial fill makes the
   bytes just below address 0 addressable up to that prefix). Ranges cover
   the arena's interior, both ends, negative [lo], empty and one-segment
   ranges, and lengths within 9 bytes of a multiple of 64. *)
let arb_guardian =
  let open QCheck.Gen in
  let gen =
    int_range 1 96 >>= fun segments ->
    oneof [ return E.unallocated; return 0; int_range 1 7 ] >>= fun fill ->
    int_range 0 6 >>= fun density ->
    let code =
      frequency
        [
          (12, return 0);
          (density, int_range 1 7);
          (density, oneofl poison_codes);
        ]
    in
    array_size (return segments) code >>= fun codes ->
    let bytes = 8 * segments in
    let range =
      frequency
        [
          ( 3,
            int_range (-40) (bytes + 40) >>= fun lo ->
            map (fun len -> (lo, lo + len)) (int_range 0 (bytes + 40)) );
          ( 2,
            map2
              (fun lo pad -> (lo, bytes + pad))
              (int_range (-40) (-1)) (int_range 1 40) );
          ( 2,
            int_range (-30) (-1) >>= fun lo ->
            map (fun len -> (lo, lo + len)) (int_range 0 80) );
          ( 1,
            int_range (-16) (bytes + 16) >>= fun lo ->
            map (fun d -> (lo, lo - d)) (int_range 0 3) );
          ( 2,
            int_range (-2) (segments + 1) >>= fun s ->
            int_range 0 7 >>= fun a ->
            map (fun b -> ((8 * s) + a, (8 * s) + a + b)) (int_range 1 (8 - a)) );
          ( 3,
            int_range 1 (Int.max 1 (bytes / 64)) >>= fun k ->
            int_range (-9) 9 >>= fun d ->
            map
              (fun lo -> (lo, lo + Int.max 0 ((64 * k) + d)))
              (int_range (-8) bytes) );
        ]
    in
    map (fun (lo, hi) -> (fill, codes, lo, hi)) range
  in
  QCheck.make
    ~print:(fun (fill, codes, lo, hi) ->
      Printf.sprintf "fill %d, codes [%s], [%d, %d)" fill
        (String.concat "; " (Array.to_list (Array.map string_of_int codes)))
        lo hi)
    gen

let test_guardian_equals_reference =
  QCheck_alcotest.to_alcotest
  @@ QCheck.Test.make ~count:2000
       ~name:"word-wide guardian = per-segment reference (verdict, address, loads)"
       arb_guardian (fun (fill, codes, lo, hi) ->
      let make () =
        let segments = Array.length codes in
        let m = Shadow_mem.create ~segments ~fill in
        Array.iteri (Shadow_mem.set m) codes;
        m
      in
      let m = make () and r = make () in
      let got = Giantsan_asan.Asan_runtime.region_is_safe m ~lo ~hi in
      let want = region_is_safe_reference r ~lo ~hi in
      let show = function None -> "None" | Some a -> string_of_int a in
      if got <> want || Shadow_mem.loads m <> Shadow_mem.loads r then
        QCheck.Test.fail_reportf "%s with %d loads, reference %s with %d"
          (show got) (Shadow_mem.loads m) (show want) (Shadow_mem.loads r);
      true)

let suite =
  ( "asan",
    [
      Helpers.qt "in-bounds accesses pass" `Quick test_inbounds_access;
      Helpers.qt "overflow detected" `Quick test_overflow_byte;
      Helpers.qt "underflow detected" `Quick test_underflow_byte;
      Helpers.qt "use-after-free detected" `Quick test_uaf_detected;
      Helpers.qt "guardian loads are linear" `Quick test_region_guardian_is_linear;
      Helpers.qt "guardian detects bad regions" `Quick test_region_guardian_detects;
      Helpers.qt "redzone bypass: ASan misses, anchor catches" `Quick
        test_redzone_bypass_false_negative;
      Helpers.qt "partial segment semantics" `Quick test_partial_segment_semantics;
      Helpers.qt "unaligned crossing access: ASan blind spot" `Quick
        test_unaligned_crossing_blind_spot;
      Helpers.qt "one shadow load per access" `Quick test_every_access_costs_a_load;
      test_asan_oracle;
      test_parity;
      test_guardian_equals_reference;
    ] )
