open Giantsan_util

let test_log2_floor () =
  Alcotest.(check int) "log2 1" 0 (Bitops.log2_floor 1);
  Alcotest.(check int) "log2 2" 1 (Bitops.log2_floor 2);
  Alcotest.(check int) "log2 3" 1 (Bitops.log2_floor 3);
  Alcotest.(check int) "log2 4" 2 (Bitops.log2_floor 4);
  Alcotest.(check int) "log2 1023" 9 (Bitops.log2_floor 1023);
  Alcotest.(check int) "log2 1024" 10 (Bitops.log2_floor 1024);
  Alcotest.(check int) "log2 max" 61 (Bitops.log2_floor (1 lsl 61))

(* The shift loop [log2_floor] replaced, kept as its reference twin. *)
let log2_floor_loop n =
  let rec loop n acc = if n <= 1 then acc else loop (n lsr 1) (acc + 1) in
  loop n 0

let test_log2_floor_matches_loop () =
  let check n =
    if Bitops.log2_floor n <> log2_floor_loop n then
      Alcotest.failf "log2_floor %d = %d, loop says %d" n (Bitops.log2_floor n)
        (log2_floor_loop n)
  in
  for n = 1 to 1 lsl 16 do
    check n
  done;
  List.iter (fun n -> if n >= 1 then check n) (Helpers.pow2_edges ~max_bits:40);
  (* and every bit position an int has *)
  for k = 0 to 61 do
    check (1 lsl k);
    check ((1 lsl k) - 1 + (1 lsl k))
  done;
  check max_int

let test_log2_ceil () =
  Alcotest.(check int) "ceil 1" 0 (Bitops.log2_ceil 1);
  Alcotest.(check int) "ceil 2" 1 (Bitops.log2_ceil 2);
  Alcotest.(check int) "ceil 3" 2 (Bitops.log2_ceil 3);
  Alcotest.(check int) "ceil 1025" 11 (Bitops.log2_ceil 1025)

let test_align () =
  Alcotest.(check int) "down 0" 0 (Bitops.align_down 8 7);
  Alcotest.(check int) "down 8" 8 (Bitops.align_down 8 15);
  Alcotest.(check int) "down exact" 16 (Bitops.align_down 8 16);
  Alcotest.(check int) "up 8" 8 (Bitops.align_up 8 1);
  Alcotest.(check int) "up exact" 16 (Bitops.align_up 8 16);
  Alcotest.(check int) "up 0" 0 (Bitops.align_up 8 0);
  Alcotest.(check bool) "aligned yes" true (Bitops.is_aligned 8 64);
  Alcotest.(check bool) "aligned no" false (Bitops.is_aligned 8 63)

let test_cdiv () =
  Alcotest.(check int) "cdiv exact" 4 (Bitops.cdiv 32 8);
  Alcotest.(check int) "cdiv up" 5 (Bitops.cdiv 33 8);
  Alcotest.(check int) "cdiv zero" 0 (Bitops.cdiv 0 8)

let test_pow2_props =
  Helpers.q "pow2/log2 round-trip"
    QCheck.(int_range 0 60)
    (fun x -> Bitops.log2_floor (Bitops.pow2 x) = x)

let test_log2_bounds =
  Helpers.q "2^floor(log2 n) <= n < 2^(floor+1)"
    QCheck.(int_range 1 (1 lsl 40))
    (fun n ->
      let f = Bitops.log2_floor n in
      Bitops.pow2 f <= n && n < Bitops.pow2 (f + 1))

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next64 a) (Rng.next64 b)
  done

let test_rng_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17);
    let w = Rng.int_in rng 5 9 in
    Alcotest.(check bool) "int_in range" true (w >= 5 && w <= 9)
  done

let test_rng_weighted () =
  let rng = Rng.create 11 in
  let counts = Hashtbl.create 3 in
  for _ = 1 to 3000 do
    let v = Rng.weighted rng [ (1, "a"); (2, "b"); (0, "c") ] in
    Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
  done;
  Alcotest.(check bool) "no zero-weight picks" true
    (Hashtbl.find_opt counts "c" = None);
  let a = Hashtbl.find counts "a" and b = Hashtbl.find counts "b" in
  Alcotest.(check bool) "roughly 1:2" true (b > a)

let test_rng_shuffle () =
  let rng = Rng.create 3 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_rng_weighted_edges () =
  let rng = Rng.create 23 in
  (* zero-weight entries surrounding the only live one are never picked *)
  for _ = 1 to 500 do
    Alcotest.(check string) "single live entry" "only"
      (Rng.weighted rng [ (0, "a"); (5, "only"); (0, "b") ])
  done;
  (* a zero-weight head must not absorb the roll for the first live entry *)
  for _ = 1 to 500 do
    Alcotest.(check string) "zero-weight head skipped" "live"
      (Rng.weighted rng [ (0, "dead"); (1, "live") ])
  done

let test_rng_int_in_degenerate () =
  let rng = Rng.create 29 in
  for _ = 1 to 100 do
    Alcotest.(check int) "lo = hi" 7 (Rng.int_in rng 7 7);
    Alcotest.(check int) "negative point range" (-3) (Rng.int_in rng (-3) (-3))
  done;
  Alcotest.(check int) "bound 1" 0 (Rng.int rng 1)

let test_rng_shuffle_tiny () =
  let rng = Rng.create 31 in
  let empty : int array = [||] in
  Rng.shuffle rng empty;
  Alcotest.(check (array int)) "empty untouched" [||] empty;
  let one = [| 42 |] in
  Rng.shuffle rng one;
  Alcotest.(check (array int)) "singleton untouched" [| 42 |] one;
  Alcotest.(check int) "pick singleton" 9 (Rng.pick rng [| 9 |])

let test_bitops_edges () =
  Alcotest.(check int) "pow2 0" 1 (Bitops.pow2 0);
  Alcotest.(check int) "pow2 61" (1 lsl 61) (Bitops.pow2 61);
  Alcotest.(check bool) "is_pow2 1" true (Bitops.is_pow2 1);
  Alcotest.(check bool) "is_pow2 2" true (Bitops.is_pow2 2);
  Alcotest.(check bool) "is_pow2 3" false (Bitops.is_pow2 3);
  Alcotest.(check bool) "is_pow2 63" false (Bitops.is_pow2 63);
  Alcotest.(check bool) "is_pow2 64" true (Bitops.is_pow2 64);
  Alcotest.(check int) "align_down 1" 17 (Bitops.align_down 1 17);
  Alcotest.(check int) "align_up 1" 17 (Bitops.align_up 1 17);
  Alcotest.(check bool) "everything 1-aligned" true (Bitops.is_aligned 1 13);
  Alcotest.(check int) "cdiv 1 1" 1 (Bitops.cdiv 1 1);
  Alcotest.(check int) "cdiv n<d" 1 (Bitops.cdiv 3 8)

let test_stats () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ]);
  Alcotest.(check (float 1e-9)) "median odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "ratio" 150.0 (Stats.ratio_pct 3.0 2.0);
  Alcotest.(check (float 1e-9)) "stddev const" 0.0 (Stats.stddev [ 5.0; 5.0 ])

let test_geomean_scale_invariance =
  Helpers.q "geomean(kx) = k*geomean(x)"
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 1 8) (float_range 0.5 10.0)) (float_range 0.5 4.0))
    (fun (xs, k) ->
      match xs with
      | [] -> true
      | xs ->
        let a = Stats.geomean (List.map (fun x -> x *. k) xs) in
        let b = k *. Stats.geomean xs in
        abs_float (a -. b) < 1e-6 *. (1.0 +. abs_float b))

let test_table_render () =
  let out =
    Table.render [ [ "name"; "value" ]; [ "alpha"; "1" ]; [ "b"; "22" ] ]
  in
  Alcotest.(check bool) "has header" true
    (String.length out > 0 && String.sub out 0 4 = "name");
  (* all data lines share the same width *)
  let lines = String.split_on_char '\n' (String.trim out) in
  Alcotest.(check int) "4 lines" 4 (List.length lines)

let suite =
  ( "util",
    [
      Helpers.qt "bitops: log2_floor" `Quick test_log2_floor;
      Helpers.qt "bitops: log2_floor = the shift loop" `Quick
        test_log2_floor_matches_loop;
      Helpers.qt "bitops: log2_ceil" `Quick test_log2_ceil;
      Helpers.qt "bitops: align" `Quick test_align;
      Helpers.qt "bitops: cdiv" `Quick test_cdiv;
      test_pow2_props;
      test_log2_bounds;
      Helpers.qt "rng: determinism" `Quick test_rng_determinism;
      Helpers.qt "rng: bounds" `Quick test_rng_bounds;
      Helpers.qt "rng: weighted" `Quick test_rng_weighted;
      Helpers.qt "rng: shuffle is a permutation" `Quick test_rng_shuffle;
      Helpers.qt "rng: weighted zero-weight edges" `Quick
        test_rng_weighted_edges;
      Helpers.qt "rng: degenerate ranges" `Quick test_rng_int_in_degenerate;
      Helpers.qt "rng: shuffle/pick on tiny arrays" `Quick
        test_rng_shuffle_tiny;
      Helpers.qt "bitops: edge cases" `Quick test_bitops_edges;
      Helpers.qt "stats: basics" `Quick test_stats;
      test_geomean_scale_invariance;
      Helpers.qt "table: render" `Quick test_table_render;
    ] )
