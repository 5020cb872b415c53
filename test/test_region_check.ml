(* Algorithm 1 (CI) correctness: unit cases on crafted shadows, then
   property tests against the byte-level oracle on random heaps. *)

module SC = Giantsan_core.State_code
module RC = Giantsan_core.Region_check
module Folding = Giantsan_core.Folding
module Shadow_mem = Giantsan_shadow.Shadow_mem
module Memsim = Giantsan_memsim
module San = Giantsan_sanitizer.Sanitizer

let mk_object_shadow ~size =
  (* a standalone shadow holding one object at byte 64 *)
  let m = Shadow_mem.create ~segments:256 ~fill:SC.unallocated in
  let full = size / 8 and rem = size mod 8 in
  Shadow_mem.set m 6 SC.heap_redzone;
  Shadow_mem.set m 7 SC.heap_redzone;
  Folding.poison_good_run m ~first_seg:8 ~count:full;
  if rem > 0 then Shadow_mem.set m (8 + full) (SC.partial rem);
  (m, 64)

let safe o = RC.is_safe o

let test_whole_object_safe () =
  List.iter
    (fun size ->
      let m, base = mk_object_shadow ~size in
      Alcotest.(check bool)
        (Printf.sprintf "whole object of %d" size)
        true
        (safe (RC.check m ~l:base ~r:(base + size))))
    [ 1; 7; 8; 9; 16; 63; 64; 65; 100; 128; 1000 ]

let test_one_past_end_fails () =
  List.iter
    (fun size ->
      let m, base = mk_object_shadow ~size in
      Alcotest.(check bool)
        (Printf.sprintf "size %d + 1 overflows" size)
        false
        (safe (RC.check m ~l:base ~r:(base + size + 1))))
    [ 1; 7; 8; 9; 16; 63; 64; 65; 100; 128; 1000 ]

let test_fast_path_hit () =
  (* a large object: any prefix within the first fold's coverage is settled
     by the fast check with a single metadata load *)
  let m, base = mk_object_shadow ~size:1024 in
  Shadow_mem.reset_counters m;
  (match RC.check m ~l:base ~r:(base + 1024) with
  | RC.Safe_fast -> ()
  | _ -> Alcotest.fail "expected fast check");
  Alcotest.(check int) "exactly one metadata load" 1 (Shadow_mem.loads m)

let test_slow_path_two_folds () =
  (* Figure 6c: a region needing two folded segments. 24 segments from the
     start of a 24-segment object: fold at l covers 16, suffix fold covers
     the remaining 8. *)
  let m, base = mk_object_shadow ~size:192 in
  Shadow_mem.reset_counters m;
  (match RC.check m ~l:base ~r:(base + 192) with
  | RC.Safe_slow -> ()
  | RC.Safe_fast | RC.Safe_word -> Alcotest.fail "expected slow check"
  | RC.Bad _ -> Alcotest.fail "region is safe");
  Alcotest.(check bool) "O(1) loads even on slow path" true
    (Shadow_mem.loads m <= 3)

let test_constant_loads_any_size () =
  (* the headline claim: checks cost O(1) metadata loads regardless of
     region size (ASan would need size/8) *)
  List.iter
    (fun size ->
      let m, base = mk_object_shadow ~size in
      Shadow_mem.reset_counters m;
      ignore (RC.check m ~l:base ~r:(base + size));
      Alcotest.(check bool)
        (Printf.sprintf "<=3 loads for %d bytes" size)
        true
        (Shadow_mem.loads m <= 3))
    [ 8; 64; 512; 1024; 1496; 2048 ]

let test_empty_region () =
  let m, base = mk_object_shadow ~size:64 in
  Alcotest.(check bool) "empty region safe" true
    (safe (RC.check m ~l:base ~r:base));
  Alcotest.(check bool) "reversed region safe" true
    (safe (RC.check m ~l:base ~r:(base - 8)));
  (* regression, found by the refinement harness: a zero-length region at
     an UNALIGNED address over non-addressable memory used to align down
     first and report bytes the operation never touches *)
  Alcotest.(check bool) "empty region at an unaligned redzone address" true
    (safe (RC.check_unaligned m ~l:(base - 3) ~r:(base - 3)));
  Alcotest.(check bool) "empty region at unaligned unallocated memory" true
    (safe (RC.check_unaligned m ~l:(base + 517) ~r:(base + 517)));
  Alcotest.(check bool) "reversed unaligned region safe" true
    (safe (RC.check_unaligned m ~l:(base + 517) ~r:(base + 509)))

let test_region_in_redzone () =
  let m, base = mk_object_shadow ~size:64 in
  Alcotest.(check bool) "redzone access caught" false
    (safe (RC.check m ~l:(base - 8) ~r:base));
  Alcotest.(check bool) "unallocated caught" false
    (safe (RC.check m ~l:(base + 512) ~r:(base + 520)))

let test_partial_segment_cases () =
  let m, base = mk_object_shadow ~size:20 in
  (* bytes 16..20 live in the partial segment *)
  Alcotest.(check bool) "prefix of partial ok" true
    (safe (RC.check m ~l:base ~r:(base + 18)));
  Alcotest.(check bool) "full partial ok" true
    (safe (RC.check m ~l:base ~r:(base + 20)));
  Alcotest.(check bool) "past partial bad" false
    (safe (RC.check m ~l:base ~r:(base + 21)));
  (* unaligned start inside the object *)
  Alcotest.(check bool) "tail from byte 17" true
    (safe (RC.check_unaligned m ~l:(base + 17) ~r:(base + 20)))

let test_mid_object_start () =
  let m, base = mk_object_shadow ~size:128 in
  Alcotest.(check bool) "mid-object region" true
    (safe (RC.check m ~l:(base + 40) ~r:(base + 120)));
  Alcotest.(check bool) "mid-object overflow" false
    (safe (RC.check m ~l:(base + 40) ~r:(base + 129)))

(* ------------------------------------------------------------------ *)
(* Oracle equivalence properties                                       *)
(* ------------------------------------------------------------------ *)

(* GiantSan runtime's region check vs. ground truth over random heaps.
   check_region is safe  <=>  all bytes [align8(lo), hi) addressable. *)
let region_agrees_with_oracle (seed, picks) =
  let rng = Giantsan_util.Rng.create seed in
  let san, live, freed = Helpers.random_scene rng Helpers.giantsan in
  let objects = Array.of_list (live @ freed) in
  if Array.length objects = 0 then true
  else
    List.for_all
      (fun (obj_pick, off_pick, len_pick) ->
        let obj = objects.(obj_pick mod Array.length objects) in
        let lo = obj.Memsim.Memobj.base + (off_pick mod 400) - 50 in
        let hi = lo + (len_pick mod 400) in
        let lo = max 8 lo in
        let hi = min (Memsim.Arena.size (Memsim.Heap.arena san.San.heap) - 8) hi in
        if hi <= lo then true
        else begin
          let said_safe = Helpers.check_is_safe (san.San.check_region ~lo ~hi) in
          let lo' = lo land lnot 7 in
          let truly_safe = Helpers.oracle_safe san ~lo:lo' ~hi in
          said_safe = truly_safe
        end)
      picks

let test_region_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"CI(L,R) <=> oracle addressability" ~count:300
       QCheck.(
         pair small_int
           (list_of_size (Gen.int_range 1 20)
              (triple small_nat small_nat small_nat)))
       region_agrees_with_oracle)

(* The anchored single-access path must agree with the oracle too: safe
   iff every byte between anchor and access end is addressable. *)
let access_agrees_with_oracle (seed, picks) =
  let rng = Giantsan_util.Rng.create seed in
  let san, live, freed = Helpers.random_scene rng Helpers.giantsan in
  let objects = Array.of_list (live @ freed) in
  if Array.length objects = 0 then true
  else
    List.for_all
      (fun (obj_pick, off_pick, w_pick) ->
        let obj = objects.(obj_pick mod Array.length objects) in
        let base = obj.Memsim.Memobj.base in
        let off = (off_pick mod 400) - 60 in
        let width = [| 1; 2; 4; 8 |].(w_pick mod 4) in
        let addr = base + off in
        let arena_hi = Memsim.Arena.size (Memsim.Heap.arena san.San.heap) - 16 in
        if addr < 8 || addr + width > arena_hi then true
        else begin
          let said_safe =
            Helpers.check_is_safe (san.San.access ~base ~addr ~width)
          in
          let lo, hi =
            if addr >= base then (base, addr + width)
            else ((addr land lnot 7), max (addr + width) base)
          in
          let truly_safe = Helpers.oracle_safe san ~lo ~hi in
          said_safe = truly_safe
        end)
      picks

let test_access_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"anchored access <=> oracle" ~count:300
       QCheck.(
         pair small_int
           (list_of_size (Gen.int_range 1 20)
              (triple small_nat small_nat small_nat)))
       access_agrees_with_oracle)

(* Every Bad verdict must name an address inside the checked region:
   l <= addr < r. Algorithm 1's suffix branch rounds the first
   non-addressable byte up to its segment end, which without clamping
   could report an address at or past r. *)
let bad_addr_within_region (seed, picks) =
  let rng = Giantsan_util.Rng.create seed in
  let san, m = Giantsan_core.Gs_runtime.create_exposed Helpers.small_config in
  let n_objects = Giantsan_util.Rng.int_in rng 3 10 in
  for _ = 1 to n_objects do
    let size = Giantsan_util.Rng.int_in rng 0 300 in
    let obj = san.San.malloc size in
    if Giantsan_util.Rng.int rng 3 = 0 then
      ignore (san.San.free obj.Memsim.Memobj.base)
  done;
  let arena = 8 * Shadow_mem.segments m in
  List.for_all
    (fun (l_pick, len_pick) ->
      let l = (l_pick mod (arena - 16)) land lnot 7 in
      let r = min arena (l + 1 + (len_pick mod 400)) in
      match RC.check m ~l ~r with
      | RC.Safe_fast | RC.Safe_slow | RC.Safe_word -> true
      | RC.Bad addr -> l <= addr && addr < r)
    picks

let test_bad_addr_within_region =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"Bad addr satisfies l <= addr < r" ~count:300
       QCheck.(
         pair small_int
           (list_of_size (Gen.int_range 1 24) (pair small_nat small_nat)))
       bad_addr_within_region)

let test_bad_addr_suffix_branch_unit () =
  (* the concrete overshoot shape: a region whose prefix is good and whose
     failure is found by the suffix check in the last segment *)
  let m, base = mk_object_shadow ~size:64 in
  List.iter
    (fun r_off ->
      match RC.check m ~l:base ~r:(base + r_off) with
      | RC.Bad addr ->
          Alcotest.(check bool)
            (Printf.sprintf "Bad addr %d in [%d, %d)" addr base (base + r_off))
            true
            (base <= addr && addr < base + r_off)
      | RC.Safe_fast | RC.Safe_slow | RC.Safe_word ->
          Alcotest.fail "overflowing region reported safe")
    [ 65; 66; 70; 72; 100 ]

(* Below address 0 the shadow reads as its fill, segment by segment: the
   last segment of [-8, -3) is -1, which a truncating [/ 8] took to be
   segment 0 and so judged the region safe over a good segment 0. Both
   kernels blame -8, the region's first byte. *)
let test_negative_addresses () =
  let m = Shadow_mem.create ~segments:4 ~fill:SC.unallocated in
  Shadow_mem.set m 0 SC.good;
  let show = function
    | RC.Bad a -> Printf.sprintf "Bad %d" a
    | o -> if safe o then "safe" else "?"
  in
  let case what got =
    Alcotest.(check string) what "Bad -8" (show got)
  in
  case "check_unaligned [-8, -3)" (RC.check_unaligned m ~l:(-8) ~r:(-3));
  case "check_scalar [-8, -3)" (RC.check_scalar m ~l:(-8) ~r:(-3));
  Alcotest.(check string) "check_unaligned [0, 8)" "safe"
    (show (RC.check_unaligned m ~l:0 ~r:8))

let suite =
  ( "region_check",
    [
      Helpers.qt "whole-object regions are safe" `Quick test_whole_object_safe;
      Helpers.qt "one past the end is caught" `Quick test_one_past_end_fails;
      Helpers.qt "fast path: 1 load" `Quick test_fast_path_hit;
      Helpers.qt "slow path: two folds (Fig 6c)" `Quick test_slow_path_two_folds;
      Helpers.qt "O(1) loads at any size" `Quick test_constant_loads_any_size;
      Helpers.qt "empty regions" `Quick test_empty_region;
      Helpers.qt "redzone / unallocated regions" `Quick test_region_in_redzone;
      Helpers.qt "partial-segment boundaries" `Quick test_partial_segment_cases;
      Helpers.qt "mid-object regions" `Quick test_mid_object_start;
      test_region_oracle;
      test_access_oracle;
      test_bad_addr_within_region;
      Helpers.qt "suffix-branch Bad addr stays below r" `Quick
        test_bad_addr_suffix_branch_unit;
      Helpers.qt "negative addresses: floor segment indices" `Quick
        test_negative_addresses;
    ] )
