(* The shadow substrate's batched kernels: store-counter discipline under
   clamping (the fill_range drift bug), and blit_pattern's equivalence with
   a per-byte store loop. The cost model charges w_poison_segment per
   counted store, so a drifting counter corrupts every Table 2 number. *)

module Shadow_mem = Giantsan_shadow.Shadow_mem
module Ref_kernel = Giantsan_spec.Ref_kernel

(* clamped intersection of [lo, hi) with [0, segments) *)
let clamped_len ~segments ~lo ~hi =
  let lo' = max 0 lo and hi' = min segments hi in
  max 0 (hi' - lo')

(* byte-for-byte and counter-for-counter agreement with the scalar
   reference kernel from the executable spec *)
let agrees_with_ref m (r : Ref_kernel.t) =
  let same = ref (Shadow_mem.stores m = Ref_kernel.stores r) in
  for p = 0 to Shadow_mem.segments m - 1 do
    if Shadow_mem.peek m p <> Ref_kernel.peek r p then same := false
  done;
  !same

let test_fill_range_counts_only_clamped =
  Helpers.q "fill_range stores = clamped length (no drift past the arena)"
    QCheck.(triple (int_range 1 200) (int_range (-100) 300) (int_range 0 300))
    (fun (segments, lo, len) ->
      let hi = lo + len in
      let m = Shadow_mem.create ~segments ~fill:0 in
      let before = Shadow_mem.stores m in
      Shadow_mem.fill_range m ~lo ~hi 7;
      Shadow_mem.stores m - before = clamped_len ~segments ~lo ~hi)

let test_fill_range_tail_eviction_case =
  Helpers.qt "quarantine-eviction-shaped fill at the arena tail" `Quick
    (fun () ->
      (* the original drift: a fill whose range sticks out past the last
         segment counted the out-of-range bytes as stores *)
      let m = Shadow_mem.create ~segments:64 ~fill:0 in
      Shadow_mem.fill_range m ~lo:60 ~hi:80 9;
      Alcotest.(check int) "only 4 in-arena stores counted" 4
        (Shadow_mem.stores m);
      Alcotest.(check int) "last segment written" 9 (Shadow_mem.peek m 63);
      (* fully out-of-range fills cost nothing *)
      Shadow_mem.fill_range m ~lo:64 ~hi:90 9;
      Shadow_mem.fill_range m ~lo:(-10) ~hi:0 9;
      Alcotest.(check int) "out-of-arena fills are free" 4
        (Shadow_mem.stores m))

let test_blit_pattern_equals_per_byte_loop =
  Helpers.q "blit_pattern = per-byte set loop (bytes and counters)"
    QCheck.(
      quad (int_range 1 128) (int_range (-20) 140) (int_range 0 64)
        (int_range 0 255))
    (fun (segments, lo, len, seed) ->
      let pattern =
        Bytes.init (len + 8) (fun i -> Char.chr ((seed + (31 * i)) land 0xff))
      in
      let pat_off = seed mod 8 in
      let m1 = Shadow_mem.create ~segments ~fill:0 in
      let m2 = Ref_kernel.create ~segments ~fill:0 in
      Shadow_mem.blit_pattern m1 ~lo ~pattern ~pat_off ~len;
      Ref_kernel.blit_pattern m2 ~lo ~pattern ~pat_off ~len;
      agrees_with_ref m1 m2)

let test_blit_pattern_window_slides_on_clamp =
  Helpers.qt "negative lo slides the pattern window" `Quick (fun () ->
      let m = Shadow_mem.create ~segments:8 ~fill:0 in
      let pattern = Bytes.of_string "\001\002\003\004\005" in
      Shadow_mem.blit_pattern m ~lo:(-2) ~pattern ~pat_off:0 ~len:5;
      (* bytes 0,1 of the pattern fall before the arena; 3,4,5 land at 0.. *)
      Alcotest.(check (list int)) "pattern tail lands at segment 0"
        [ 3; 4; 5; 0 ]
        (List.map (Shadow_mem.peek m) [ 0; 1; 2; 3 ]);
      Alcotest.(check int) "three counted stores" 3 (Shadow_mem.stores m))

let test_fill_range_equals_ref_kernel =
  Helpers.q "fill_range = spec reference (bytes + store count)"
    QCheck.(triple (int_range 1 200) (int_range (-100) 300) (int_range 0 300))
    (fun (segments, lo, len) ->
      let m1 = Shadow_mem.create ~segments ~fill:0 in
      let m2 = Ref_kernel.create ~segments ~fill:0 in
      Shadow_mem.fill_range m1 ~lo ~hi:(lo + len) 7;
      Ref_kernel.fill_range m2 ~lo ~hi:(lo + len) 7;
      agrees_with_ref m1 m2)

(* Pinned model-audit cases: zero-length ranges and ranges ending exactly
   at the arena end must write nothing / everything they claim and count
   exactly the clamped length (the divergence classes the refinement
   generator is required to cover). *)
let test_batched_kernels_zero_length_and_arena_end =
  Helpers.qt "zero-length and arena-end edges match the reference" `Quick
    (fun () ->
      let segments = 64 in
      let check ~what ~lo ~hi =
        let m1 = Shadow_mem.create ~segments ~fill:0 in
        let m2 = Ref_kernel.create ~segments ~fill:0 in
        Shadow_mem.fill_range m1 ~lo ~hi 5;
        Ref_kernel.fill_range m2 ~lo ~hi 5;
        Alcotest.(check bool) what true (agrees_with_ref m1 m2)
      in
      check ~what:"len=0 in the middle" ~lo:10 ~hi:10;
      check ~what:"len=0 at the arena end" ~lo:segments ~hi:segments;
      check ~what:"len=0 past the arena end" ~lo:(segments + 4) ~hi:(segments + 4);
      check ~what:"range ending exactly at the arena end" ~lo:60 ~hi:segments;
      let pattern = Bytes.of_string "\001\002\003\004" in
      let m1 = Shadow_mem.create ~segments ~fill:0 in
      let m2 = Ref_kernel.create ~segments ~fill:0 in
      Shadow_mem.blit_pattern m1 ~lo:62 ~pattern ~pat_off:0 ~len:4;
      Ref_kernel.blit_pattern m2 ~lo:62 ~pattern ~pat_off:0 ~len:4;
      Alcotest.(check bool) "blit straddling the arena end" true
        (agrees_with_ref m1 m2);
      Shadow_mem.blit_pattern m1 ~lo:30 ~pattern ~pat_off:2 ~len:0;
      Ref_kernel.blit_pattern m2 ~lo:30 ~pattern ~pat_off:2 ~len:0;
      Alcotest.(check bool) "zero-length blit" true (agrees_with_ref m1 m2))

(* Take A, mutate, take B, mutate, restore A: the journal was reset at B,
   so restoring A must repair the whole plane, not just B's journal. *)
let test_restore_older_snapshot =
  Helpers.qt "restoring an older snapshot repairs the whole plane" `Quick
    (fun () ->
      let plane m =
        String.init (Shadow_mem.segments m) (fun p ->
            Char.chr (Shadow_mem.peek m p))
      in
      let m = Shadow_mem.create ~segments:64 ~fill:0xff in
      Shadow_mem.set m 3 1;
      let sa = Shadow_mem.snapshot m and at_a = plane m in
      let stores_a = Shadow_mem.stores m in
      Shadow_mem.set m 10 2;
      Shadow_mem.fill_range m ~lo:40 ~hi:48 5;
      let sb = Shadow_mem.snapshot m and at_b = plane m in
      Shadow_mem.fill_range m ~lo:20 ~hi:30 3;
      Shadow_mem.restore m sa;
      Alcotest.(check string) "older snapshot A" at_a (plane m);
      Alcotest.(check int) "A's store counter" stores_a (Shadow_mem.stores m);
      Shadow_mem.restore m sb;
      Alcotest.(check string) "then B again" at_b (plane m);
      Shadow_mem.set m 60 9;
      Alcotest.(check int) "armed B, journaled" 1
        (Shadow_mem.journal_segments m);
      Shadow_mem.restore m sb;
      Alcotest.(check string) "armed B, windowed" at_b (plane m))

(* The dirty journal against a reference list journal (the plain
   newest-first transcription of its rules): every store kernel appends
   its clamped range unless the newest entry contains it, [snapshot]
   empties and arms it, restoring another snapshot journals the whole
   plane first, and the chaos hook removes the k-th newest entry. Random
   streams run both side by side, with arena straddles and long enough
   unsnapshotted stretches to grow the journal past its first capacity;
   after every step the journaled segments, each dropped victim and the
   plane (restored or not) must agree. *)

type journal_op =
  | J_set of int * int
  | J_poke of int * int
  | J_fill of int * int * int  (** lo, len, value *)
  | J_blit of int * int * int  (** lo, len, pattern offset *)
  | J_snap
  | J_restore of int  (** [0] is the armed snapshot, larger ones older *)
  | J_drop of int

let pp_journal_op = function
  | J_set (p, v) -> Printf.sprintf "set %d %d" p v
  | J_poke (p, v) -> Printf.sprintf "poke %d %d" p v
  | J_fill (lo, len, v) -> Printf.sprintf "fill %d+%d %d" lo len v
  | J_blit (lo, len, off) -> Printf.sprintf "blit %d+%d @%d" lo len off
  | J_snap -> "snapshot"
  | J_restore i -> Printf.sprintf "restore %d" i
  | J_drop k -> Printf.sprintf "drop %d" k

let journal_segs = 96
let journal_pattern = Bytes.init 64 (fun i -> Char.chr (((7 * i) + 1) land 0xff))

(* Bursts of stores, each ended by a snapshot, restore or chaos drop: a
   burst of up to 150 stores grows the journal past its first capacity
   of 64 entries. *)
let arb_journal_ops =
  let open QCheck.Gen in
  let pos = int_range (-8) (journal_segs + 8) in
  let store =
    frequency
      [
        (4, map2 (fun p v -> J_set (p, v)) pos (int_range 0 255));
        (1, map2 (fun p v -> J_poke (p, v)) pos (int_range 0 255));
        ( 4,
          map3
            (fun lo len v -> J_fill (lo, len, v))
            pos (int_range 0 40) (int_range 0 255) );
        ( 4,
          map3
            (fun lo len off -> J_blit (lo, len, off))
            pos (int_range 0 32) (int_range 0 32) );
      ]
  in
  let control =
    frequency
      [
        (2, return J_snap);
        (2, map (fun i -> J_restore i) (int_range 0 2));
        (1, map (fun k -> J_drop k) (int_range (-3) 200));
      ]
  in
  let burst =
    map2 (fun stores c -> stores @ [ c ]) (list_size (int_range 0 150) store)
      control
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_journal_op ops))
    (map List.concat (list_size (int_range 1 8) burst))

type ref_journal = {
  plane : Bytes.t;
  mutable journal : (int * int) list;  (* newest first *)
  mutable armed : int option;  (* index into the snapshot list *)
}

let ref_note r lo len =
  if r.armed <> None && len > 0 then
    match r.journal with
    | (l, n) :: _ when lo >= l && lo + len <= l + n -> ()
    | _ -> r.journal <- (lo, len) :: r.journal

(* clamped store of [len] bytes from [src] at [lo]; [src k] is byte [k] *)
let ref_store r ~lo ~len src =
  let lo' = Int.max 0 lo and hi' = Int.min journal_segs (lo + len) in
  if hi' > lo' then begin
    ref_note r lo' (hi' - lo');
    for p = lo' to hi' - 1 do
      Bytes.set r.plane p (src (p - lo))
    done
  end

let run_journal_ops ops =
  let m = Shadow_mem.create ~segments:journal_segs ~fill:0xfe in
  let r =
    { plane = Bytes.make journal_segs '\xfe'; journal = []; armed = None }
  in
  (* newest first: (real snapshot, reference copy, its number) *)
  let snaps = ref [] and taken = ref 0 in
  let step = function
    | J_set (p, v) ->
      Shadow_mem.set m p v;
      ref_store r ~lo:p ~len:1 (fun _ -> Char.chr v)
    | J_poke (p, v) ->
      Shadow_mem.poke m p v;
      ref_store r ~lo:p ~len:1 (fun _ -> Char.chr v)
    | J_fill (lo, len, v) ->
      Shadow_mem.fill_range m ~lo ~hi:(lo + len) v;
      ref_store r ~lo ~len (fun _ -> Char.chr v)
    | J_blit (lo, len, off) ->
      Shadow_mem.blit_pattern m ~lo ~pattern:journal_pattern ~pat_off:off
        ~len;
      ref_store r ~lo ~len (fun k -> Bytes.get journal_pattern (off + k))
    | J_snap ->
      let s = Shadow_mem.snapshot m in
      snaps := (s, Bytes.copy r.plane, !taken) :: !snaps;
      r.journal <- [];
      r.armed <- Some !taken;
      incr taken
    | J_restore i -> (
      match List.nth_opt !snaps (i mod Int.max 1 (List.length !snaps)) with
      | None -> ()
      | Some (s, copy, id) ->
        Shadow_mem.restore m s;
        if r.armed <> Some id then begin
          r.journal <- [ (0, journal_segs) ];
          r.armed <- Some id
        end;
        List.iter (fun (lo, len) -> Bytes.blit copy lo r.plane lo len) r.journal;
        r.journal <- [])
    | J_drop pick ->
      let want =
        match List.length r.journal with
        | 0 -> None
        | n ->
          let k = ((pick mod n) + n) mod n in
          let victim = List.nth r.journal k in
          r.journal <- List.filteri (fun i _ -> i <> k) r.journal;
          Some victim
      in
      if Shadow_mem.chaos_drop_journal m ~pick <> want then
        QCheck.Test.fail_report "chaos_drop_journal dropped another entry"
  in
  List.iter
    (fun op ->
      step op;
      let segs = List.fold_left (fun a (_, len) -> a + len) 0 r.journal in
      if Shadow_mem.journal_segments m <> segs then
        QCheck.Test.fail_reportf "after %s: journal_segments %d, reference %d"
          (pp_journal_op op)
          (Shadow_mem.journal_segments m)
          segs;
      for p = 0 to journal_segs - 1 do
        if Shadow_mem.peek m p <> Char.code (Bytes.get r.plane p) then
          QCheck.Test.fail_reportf "after %s: segment %d is %d, reference %d"
            (pp_journal_op op) p (Shadow_mem.peek m p)
            (Char.code (Bytes.get r.plane p))
      done)
    ops;
  true

let test_journal_equals_reference =
  Helpers.q "dirty journal = reference list journal" arb_journal_ops
    run_journal_ops

(* [skip_zero] against a [load] loop: same segment returned, same loads
   charged. Shadows are mostly zero with a few nonzero codes,
   so the word reads see long zero runs; ranges lie inside the arena,
   straddle an end, or lie wholly outside it, under a zero fill and a
   nonzero one. *)
let skip_zero_reference m ~lo ~hi =
  let p = ref lo in
  while !p < hi && Shadow_mem.load m !p = 0 do
    incr p
  done;
  !p

let arb_skip_zero =
  let open QCheck.Gen in
  let gen =
    int_range 1 200 >>= fun segments ->
    oneof [ return 0; int_range 1 255 ] >>= fun fill ->
    list_size (int_range 0 5)
      (pair (int_bound (segments - 1)) (int_range 1 255))
    >>= fun codes ->
    let inside =
      int_range 0 segments >>= fun lo ->
      map (fun hi -> (lo, hi)) (int_range lo segments)
    and straddle =
      int_range (-70) segments >>= fun lo ->
      map
        (fun hi -> (lo, hi))
        (if lo < 0 then int_range 0 (segments + 70)
         else int_range (segments + 1) (segments + 70))
    and outside =
      oneof
        [
          (int_range (-140) 0 >>= fun lo ->
           map (fun hi -> (lo, hi)) (int_range lo 0));
          map2
            (fun lo len -> (lo, lo + len))
            (int_range segments (segments + 70))
            (int_range 0 70);
        ]
    in
    map
      (fun (lo, hi) -> (segments, fill, codes, lo, hi))
      (oneof [ inside; straddle; outside ])
  in
  QCheck.make
    ~print:(fun (segments, fill, codes, lo, hi) ->
      Printf.sprintf "segments %d, fill %d, codes [%s], [%d, %d)" segments fill
        (String.concat "; "
           (List.map (fun (p, v) -> Printf.sprintf "%d:%d" p v) codes))
        lo hi)
    gen

let test_skip_zero_equals_load_loop =
  QCheck_alcotest.to_alcotest
  @@ QCheck.Test.make ~count:1000
       ~name:"skip_zero = load loop (segment returned, loads charged)"
       arb_skip_zero (fun (segments, fill, codes, lo, hi) ->
      let make () =
        let m = Shadow_mem.create ~segments ~fill in
        Shadow_mem.fill_range m ~lo:0 ~hi:segments 0;
        List.iter (fun (p, v) -> Shadow_mem.set m p v) codes;
        m
      in
      let m = make () and r = make () in
      let got = Shadow_mem.skip_zero m ~lo ~hi in
      let want = skip_zero_reference r ~lo ~hi in
      if got <> want || Shadow_mem.loads m <> Shadow_mem.loads r then
        QCheck.Test.fail_reportf "returned %d with %d loads, reference %d with %d"
          got (Shadow_mem.loads m) want (Shadow_mem.loads r);
      true)

let suite =
  ( "shadow",
    [
      test_fill_range_counts_only_clamped;
      test_fill_range_tail_eviction_case;
      test_fill_range_equals_ref_kernel;
      test_blit_pattern_equals_per_byte_loop;
      test_blit_pattern_window_slides_on_clamp;
      test_batched_kernels_zero_length_and_arena_end;
      test_restore_older_snapshot;
      test_journal_equals_reference;
      test_skip_zero_equals_load_loop;
    ] )
