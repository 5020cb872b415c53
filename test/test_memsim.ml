open Giantsan_memsim

let test_arena_roundtrip () =
  let a = Arena.create ~size:1024 in
  Arena.store a ~addr:16 ~width:8 123456789;
  Alcotest.(check int) "w8" 123456789 (Arena.load a ~addr:16 ~width:8);
  Arena.store a ~addr:24 ~width:4 0xDEADBEEF;
  Alcotest.(check int) "w4" 0xDEADBEEF (Arena.load a ~addr:24 ~width:4);
  Arena.store a ~addr:30 ~width:2 0xFFFF;
  Alcotest.(check int) "w2" 0xFFFF (Arena.load a ~addr:30 ~width:2);
  Arena.store a ~addr:33 ~width:1 300;
  Alcotest.(check int) "w1 truncates" (300 land 0xFF) (Arena.load a ~addr:33 ~width:1)

let test_arena_fill_blit () =
  let a = Arena.create ~size:256 in
  Arena.fill a ~addr:8 ~len:16 0xAB;
  Alcotest.(check int) "filled" 0xAB (Arena.load a ~addr:15 ~width:1);
  Arena.blit a ~src:8 ~dst:100 ~len:16;
  Alcotest.(check int) "blitted" 0xAB (Arena.load a ~addr:110 ~width:1);
  (* overlap-safe like memmove *)
  Arena.blit a ~src:100 ~dst:104 ~len:8;
  Alcotest.(check int) "overlap" 0xAB (Arena.load a ~addr:108 ~width:1)

let test_arena_bounds () =
  let a = Arena.create ~size:128 in
  Alcotest.check_raises "load past end" (Invalid_argument "Arena: access [128, 129) outside arena of 128 bytes")
    (fun () -> ignore (Arena.load a ~addr:128 ~width:1));
  Alcotest.check_raises "negative" (Invalid_argument "Arena: access [-8, 0) outside arena of 128 bytes")
    (fun () -> ignore (Arena.load a ~addr:(-8) ~width:8))

let test_malloc_alignment () =
  let h = Heap.create Helpers.small_config in
  for size = 0 to 40 do
    let obj = Heap.malloc h size in
    Alcotest.(check bool) "8-aligned base" true (obj.Memobj.base mod 8 = 0);
    Alcotest.(check int) "requested size" size obj.Memobj.size
  done

let test_malloc_redzones () =
  let h = Heap.create Helpers.small_config in
  let a = Heap.malloc h 24 in
  let b = Heap.malloc h 24 in
  (* at least the configured redzone of poison between consecutive objects *)
  Alcotest.(check bool) "gap >= redzone" true
    (b.Memobj.base - (a.Memobj.base + a.Memobj.size) >= 16);
  let oracle = Heap.oracle h in
  Alcotest.(check bool) "left rz poisoned" true
    (Oracle.state oracle (a.Memobj.base - 1) = Oracle.Redzone);
  Alcotest.(check bool) "right rz poisoned" true
    (Oracle.state oracle (a.Memobj.base + a.Memobj.size) = Oracle.Redzone);
  Alcotest.(check bool) "interior addressable" true
    (Oracle.range_addressable oracle ~lo:a.Memobj.base
       ~hi:(a.Memobj.base + a.Memobj.size))

let test_malloc_no_overlap () =
  let h = Heap.create Helpers.small_config in
  let objs = List.init 20 (fun i -> Heap.malloc h (i * 7)) in
  let sorted =
    List.sort (fun (a : Memobj.t) b -> compare a.base b.base) objs
  in
  let rec pairwise = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "disjoint blocks" true
        (Memobj.block_end a <= b.Memobj.block_base);
      pairwise rest
    | _ -> ()
  in
  pairwise sorted

let test_free_and_errors () =
  let h = Heap.create Helpers.small_config in
  let a = Heap.malloc h 100 in
  (match Heap.free h (a.Memobj.base + 8) with
  | Error Heap.Free_not_at_start -> ()
  | _ -> Alcotest.fail "expected Free_not_at_start");
  (match Heap.free h 0 with
  | Error Heap.Free_null -> ()
  | _ -> Alcotest.fail "expected Free_null");
  (match Heap.free h (a.Memobj.base - 2000) with
  | Error Heap.Invalid_free -> ()
  | _ -> Alcotest.fail "expected Invalid_free");
  (match Heap.free h a.Memobj.base with
  | Ok { freed; _ } -> Alcotest.(check bool) "freed" true (freed.Memobj.id = a.Memobj.id)
  | Error _ -> Alcotest.fail "free should succeed");
  (match Heap.free h a.Memobj.base with
  | Error Heap.Double_free -> ()
  | _ -> Alcotest.fail "expected Double_free")

let test_freed_state () =
  let h = Heap.create Helpers.small_config in
  let a = Heap.malloc h 64 in
  ignore (Heap.free h a.Memobj.base);
  let oracle = Heap.oracle h in
  Alcotest.(check bool) "freed bytes" true
    (Oracle.state oracle a.Memobj.base = Oracle.Freed);
  Alcotest.(check bool) "status quarantined" true
    (a.Memobj.status = Memobj.Quarantined)

let test_quarantine_fifo () =
  let q = Quarantine.create ~budget:100 in
  let mk id len =
    {
      Memobj.id;
      kind = Memobj.Heap;
      base = 0;
      size = len;
      block_base = 0;
      block_len = len;
      status = Memobj.Quarantined;
    }
  in
  Alcotest.(check (list int)) "no evict" []
    (List.map (fun (o : Memobj.t) -> o.id) (Quarantine.push q (mk 1 40)));
  Alcotest.(check (list int)) "no evict 2" []
    (List.map (fun (o : Memobj.t) -> o.id) (Quarantine.push q (mk 2 40)));
  (* 40+40+40 > 100: oldest goes *)
  Alcotest.(check (list int)) "evict oldest" [ 1 ]
    (List.map (fun (o : Memobj.t) -> o.id) (Quarantine.push q (mk 3 40)));
  Alcotest.(check int) "held" 80 (Quarantine.bytes_held q)

let test_quarantine_recycling () =
  (* budget 0 behaves as a one-deep quarantine: a free never evicts its own
     block (that would collapse the use-after-free window to zero); the
     next free pushes it out, and only then is the block reusable *)
  let config = { Helpers.small_config with Giantsan_memsim.Heap.quarantine_budget = 0 } in
  let h = Heap.create config in
  let a = Heap.malloc h 64 in
  let b = Heap.malloc h 64 in
  (match Heap.free h a.Memobj.base with
  | Ok { evicted; _ } ->
    Alcotest.(check int) "newest retained" 0 (List.length evicted)
  | Error _ -> Alcotest.fail "free failed");
  Alcotest.(check bool) "status quarantined" true
    (a.Memobj.status = Memobj.Quarantined);
  (match Heap.free h b.Memobj.base with
  | Ok { evicted; _ } ->
    Alcotest.(check (list int)) "previous block evicted" [ a.Memobj.id ]
      (List.map (fun (o : Memobj.t) -> o.Memobj.id) evicted)
  | Error _ -> Alcotest.fail "free failed");
  Alcotest.(check bool) "status recycled" true (a.Memobj.status = Memobj.Recycled);
  let c = Heap.malloc h 64 in
  Alcotest.(check int) "block reused" a.Memobj.base c.Memobj.base

let test_quarantine_bypass_counter () =
  (* a block bigger than the whole budget stays quarantined and is counted
     as a bypass each time the overrun persists after a push *)
  let q = Quarantine.create ~budget:50 in
  let mk id len =
    {
      Memobj.id;
      kind = Memobj.Heap;
      base = 0;
      size = len;
      block_base = 0;
      block_len = len;
      status = Memobj.Quarantined;
    }
  in
  Alcotest.(check (list int)) "oversized block retained" []
    (List.map (fun (o : Memobj.t) -> o.id) (Quarantine.push q (mk 1 120)));
  Alcotest.(check int) "bypass counted" 1 (Quarantine.bypasses q);
  Alcotest.(check int) "held over budget" 120 (Quarantine.bytes_held q);
  (* the next push evicts the oversized block and fits: no new bypass *)
  Alcotest.(check (list int)) "oversized evicted by successor" [ 1 ]
    (List.map (fun (o : Memobj.t) -> o.id) (Quarantine.push q (mk 2 40)));
  Alcotest.(check int) "no further bypass" 1 (Quarantine.bypasses q)

let test_pressure_flush () =
  (* when bump space and free cache are both empty, malloc flushes the
     quarantine instead of dying: graceful degradation under pressure *)
  let config =
    { Giantsan_memsim.Heap.arena_size = 4096; redzone = 16;
      quarantine_budget = 1 lsl 20 }
  in
  let h = Heap.create config in
  let evicted_ids = ref [] in
  Heap.set_evict_hook h (fun o -> evicted_ids := o.Memobj.id :: !evicted_ids);
  let big = Heap.malloc h 3800 in
  ignore (Heap.free h big.Memobj.base);
  Alcotest.(check bool) "still quarantined" true
    (big.Memobj.status = Memobj.Quarantined);
  let a = Heap.malloc h 400 in
  Alcotest.(check int) "one pressure flush" 1 (Heap.pressure_flushes h);
  Alcotest.(check (list int)) "evict hook saw the block" [ big.Memobj.id ]
    !evicted_ids;
  Alcotest.(check bool) "carved from the flushed block" true
    (a.Memobj.block_base >= big.Memobj.block_base
    && Memobj.block_end a <= Memobj.block_end big);
  Alcotest.(check bool) "recycled" true (big.Memobj.status = Memobj.Recycled)

let test_chaos_oom_countdown () =
  let h = Heap.create Helpers.small_config in
  Heap.chaos_oom_after h 2;
  ignore (Heap.malloc h 8);
  ignore (Heap.malloc h 8);
  Alcotest.check_raises "armed malloc raises" Out_of_memory (fun () ->
      ignore (Heap.malloc h 8));
  (* the countdown disarms itself after firing *)
  ignore (Heap.malloc h 8)

let test_stack_objects_recycle_immediately () =
  let h = Heap.create Helpers.small_config in
  let a = Heap.malloc h ~kind:Memobj.Stack 48 in
  (match Heap.free h a.Memobj.base with
  | Ok { evicted; _ } ->
    Alcotest.(check int) "stack skips quarantine" 1 (List.length evicted)
  | Error _ -> Alcotest.fail "free failed");
  let oracle = Heap.oracle h in
  Alcotest.(check bool) "unallocated after pop" true
    (Oracle.state oracle a.Memobj.base = Oracle.Unallocated)

let test_owner_lookup () =
  let h = Heap.create Helpers.small_config in
  let a = Heap.malloc h 100 in
  (match Heap.find_object h (a.Memobj.base + 50) with
  | Some o -> Alcotest.(check int) "inside" a.Memobj.id o.Memobj.id
  | None -> Alcotest.fail "owner expected");
  (match Heap.find_object h (a.Memobj.base - 4) with
  | Some o -> Alcotest.(check int) "left redzone owned" a.Memobj.id o.Memobj.id
  | None -> Alcotest.fail "redzone owner expected");
  Alcotest.(check bool) "null unowned" true (Heap.find_object h 0 = None)

let test_out_of_memory () =
  let config =
    { Giantsan_memsim.Heap.arena_size = 2048; redzone = 16; quarantine_budget = 0 }
  in
  let h = Heap.create config in
  Alcotest.check_raises "oom" Out_of_memory (fun () ->
      for _ = 1 to 100 do
        ignore (Heap.malloc h 128)
      done)

let test_live_bytes () =
  let h = Heap.create Helpers.small_config in
  let a = Heap.malloc h 100 in
  let _b = Heap.malloc h 50 in
  Alcotest.(check int) "after allocs" 150 (Heap.live_bytes h);
  ignore (Heap.free h a.Memobj.base);
  Alcotest.(check int) "after free" 50 (Heap.live_bytes h)

let test_oracle_first_bad () =
  let h = Heap.create Helpers.small_config in
  let a = Heap.malloc h 32 in
  let oracle = Heap.oracle h in
  Alcotest.(check (option int)) "clean" None
    (Oracle.first_bad oracle ~lo:a.Memobj.base ~hi:(a.Memobj.base + 32));
  Alcotest.(check (option int)) "first bad is end" (Some (a.Memobj.base + 32))
    (Oracle.first_bad oracle ~lo:a.Memobj.base ~hi:(a.Memobj.base + 40))

let test_first_fit_reuse () =
  (* exhaust the bump space, then satisfy smaller requests by splitting a
     recycled large block *)
  let config =
    { Giantsan_memsim.Heap.arena_size = 4096; redzone = 16; quarantine_budget = 0 }
  in
  let h = Heap.create config in
  (* the big block leaves almost no bump space behind it *)
  let big = Heap.malloc h 3800 in
  ignore (Heap.free h big.Memobj.base);
  (* bump space is nearly gone; these must carve the recycled block *)
  let a = Heap.malloc h 400 in
  let b = Heap.malloc h 400 in
  Alcotest.(check bool) "a inside the old block" true
    (a.Memobj.block_base >= big.Memobj.block_base
    && Memobj.block_end a <= Memobj.block_end big);
  Alcotest.(check bool) "disjoint" true
    (Memobj.block_end a <= b.Memobj.block_base
    || Memobj.block_end b <= a.Memobj.block_base);
  let oracle = Heap.oracle h in
  Alcotest.(check bool) "both addressable" true
    (Oracle.range_addressable oracle ~lo:a.Memobj.base ~hi:(a.Memobj.base + 400)
    && Oracle.range_addressable oracle ~lo:b.Memobj.base ~hi:(b.Memobj.base + 400))

let test_malloc_zero () =
  let h = Heap.create Helpers.small_config in
  let a = Heap.malloc h 0 in
  let oracle = Heap.oracle h in
  Alcotest.(check bool) "no addressable bytes" true
    (Oracle.state oracle a.Memobj.base <> Oracle.Addressable);
  (* freeing a zero-size object still works *)
  match Heap.free h a.Memobj.base with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "free of size-0 object"

(* Fuzz-mode restore with two snapshots in play: take A, mutate, take B,
   mutate, then restore A. Each plane's dirty window only covers what
   changed since the snapshot it armed (B), so restoring A must repair the
   whole plane, and every later restore must still land exactly. *)

let arena_bytes a =
  String.init (Arena.size a) (fun i ->
      Char.chr (Arena.load a ~addr:i ~width:1))

let test_arena_restore_older_snapshot () =
  let a = Arena.create ~size:256 in
  Arena.store a ~addr:16 ~width:8 0x0101;
  let sa = Arena.snapshot a and at_a = arena_bytes a in
  Arena.store a ~addr:32 ~width:4 0x0202;
  Arena.fill a ~addr:200 ~len:8 3;
  let sb = Arena.snapshot a and at_b = arena_bytes a in
  Arena.blit a ~src:16 ~dst:100 ~len:8;
  Arena.restore a sa;
  Alcotest.(check string) "older snapshot A" at_a (arena_bytes a);
  Arena.restore a sb;
  Alcotest.(check string) "then B again" at_b (arena_bytes a);
  Arena.store a ~addr:40 ~width:8 7;
  Arena.restore a sb;
  Alcotest.(check string) "armed B, windowed" at_b (arena_bytes a)

(* Everything a restore must rewind, the oracle's byte states and owner
   ids included. *)
let heap_fingerprint h =
  let a = Heap.arena h and o = Heap.oracle h in
  let b = Buffer.create 4096 in
  Buffer.add_string b (arena_bytes a);
  for i = 0 to Arena.size a - 1 do
    Buffer.add_char b
      (match Oracle.state o i with
      | Oracle.Unallocated -> 'u'
      | Addressable -> 'a'
      | Redzone -> 'r'
      | Freed -> 'f')
  done;
  for seg = 0 to Heap.segment_count h - 1 do
    Buffer.add_string b
      (match Heap.find_object h (8 * seg) with
      | Some obj ->
        Printf.sprintf "%d:%s," obj.Memobj.id
          (match obj.Memobj.status with
          | Memobj.Live -> "L"
          | Quarantined -> "Q"
          | Recycled -> "R")
      | None -> "-,")
  done;
  Buffer.add_string b
    (Printf.sprintf "|live=%d q=%s" (Heap.live_bytes h)
       (String.concat ";" (List.map string_of_int (Heap.quarantine_ids h))));
  Buffer.contents b

let test_heap_restore_older_snapshot () =
  let config =
    { Heap.arena_size = 2048; redzone = 16; quarantine_budget = 256 }
  in
  let h = Heap.create config in
  let x = Heap.malloc h 40 in
  let y = Heap.malloc h 24 in
  let sa = Heap.snapshot h and at_a = heap_fingerprint h in
  ignore (Heap.free h x.Memobj.base);
  let z = Heap.malloc h 100 in
  Arena.store (Heap.arena h) ~addr:z.Memobj.base ~width:8 42;
  let sb = Heap.snapshot h and at_b = heap_fingerprint h in
  ignore (Heap.free h y.Memobj.base);
  ignore (Heap.free h z.Memobj.base);
  ignore (Heap.malloc h 300);
  Heap.restore h sa;
  Alcotest.(check string) "older snapshot A" at_a (heap_fingerprint h);
  Heap.restore h sb;
  Alcotest.(check string) "then B again" at_b (heap_fingerprint h);
  ignore (Heap.malloc h 16);
  Heap.restore h sb;
  Alcotest.(check string) "armed B, windowed" at_b (heap_fingerprint h)

(* The owner map is exact. A random stream of mallocs, frees (valid,
   double and interior), snapshots and restores (of the armed snapshot
   and of older ones) runs against a reference: the objects the caller
   has seen that the heap can still reach. After every step
   [Heap.find_object] at every segment must return the one non-Recycled
   reference object whose block covers it, and [Oracle.fold_owners] must
   visit each such object once, in ascending [block_base] order. *)

type owner_op =
  | Alloc of Memobj.kind * int
  | Free_live of int  (** a valid free of the [i]-th live object *)
  | Free_any of int  (** the [i]-th object ever seen: mostly double frees *)
  | Free_interior of int * int  (** byte [k] (mod length) of its block *)
  | Snap
  | Restore of int  (** [0] is the newest snapshot, larger ones older *)

let pp_owner_op = function
  | Alloc (k, n) -> Printf.sprintf "alloc %s %d" (Memobj.kind_name k) n
  | Free_live i -> Printf.sprintf "free live#%d" i
  | Free_any i -> Printf.sprintf "free any#%d" i
  | Free_interior (i, k) -> Printf.sprintf "free #%d+%d" i k
  | Snap -> "snapshot"
  | Restore i -> Printf.sprintf "restore %d" i

let arb_ops sizes =
  let open QCheck.Gen in
  let op =
    frequency
      [
        ( 6,
          map2
            (fun k n -> Alloc (k, n))
            (oneofl [ Memobj.Heap; Stack; Global ])
            sizes );
        (3, map (fun i -> Free_live i) small_nat);
        (1, map (fun i -> Free_any i) small_nat);
        (1, map2 (fun i k -> Free_interior (i, k)) small_nat (int_range 1 340));
        (1, return Snap);
        (1, map (fun i -> Restore i) (int_range 0 3));
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_owner_op ops))
    (list_size (int_range 1 120) op)

(* Blocks of 2-42 segments straddle [Oracle.claim]'s switch from its
   store loop to its doubling blits at 32; blocks of 1-2 KiB take three
   to four doublings. *)
let arb_owner_ops =
  arb_ops QCheck.Gen.(frequency [ (4, int_range 0 300); (1, int_range 992 2016) ])

let check_owner_map h reference =
  let owned =
    List.filter (fun (o : Memobj.t) -> o.status <> Memobj.Recycled) reference
  in
  let expected = Array.make (Heap.segment_count h) None in
  List.iter
    (fun (o : Memobj.t) ->
      for seg = o.block_base / 8 to (Memobj.block_end o - 1) / 8 do
        if expected.(seg) <> None then
          QCheck.Test.fail_reportf "segment %d covered twice" seg;
        expected.(seg) <- Some o
      done)
    owned;
  let id = function Some (o : Memobj.t) -> string_of_int o.id | None -> "-" in
  Array.iteri
    (fun seg want ->
      (* one byte per segment, at each offset in turn *)
      let addr = (8 * seg) + (seg land 7) in
      let got = Heap.find_object h addr in
      let same =
        match (got, want) with
        | None, None -> true
        | Some g, Some w -> g == w
        | _ -> false
      in
      if not same then
        QCheck.Test.fail_reportf "find_object %d: got %s, want %s" addr
          (id got) (id want))
    expected;
  let folded =
    List.rev (Oracle.fold_owners (Heap.oracle h) (fun acc o -> o :: acc) [])
  in
  let by_base =
    List.sort
      (fun (a : Memobj.t) (b : Memobj.t) -> compare a.block_base b.block_base)
      owned
  in
  if not (List.equal ( == ) folded by_base) then
    QCheck.Test.fail_report "fold_owners: not each owner once in block order"

let nth_opt_mod l i =
  match l with [] -> None | _ -> Some (List.nth l (i mod List.length l))

let run_owner_ops config ops =
  let h = Heap.create config in
  (* [reference]: objects the heap can reach, newest first. [seen]: every
     object handed out, the targets of double and interior frees. A
     snapshot keeps its reference; objects allocated after it leave. *)
  let reference = ref [] and seen = ref [] and snaps = ref [] in
  let free ptr = ignore (Heap.free h ptr) in
  let step = function
    | Alloc (kind, size) -> (
      match Heap.malloc h ~kind size with
      | o ->
        reference := o :: !reference;
        seen := o :: !seen
      | exception Out_of_memory -> ())
    | Free_live i -> (
      let live =
        List.filter (fun (o : Memobj.t) -> o.status = Memobj.Live) !reference
      in
      match nth_opt_mod live i with
      | Some o -> free o.Memobj.base
      | None -> ())
    | Free_any i -> (
      match nth_opt_mod !seen i with
      | Some o -> free o.Memobj.base
      | None -> ())
    | Free_interior (i, k) -> (
      match nth_opt_mod !seen i with
      | Some o -> free (o.Memobj.block_base + (k mod o.Memobj.block_len))
      | None -> ())
    | Snap ->
      let live =
        List.filter
          (fun (o : Memobj.t) -> o.status <> Memobj.Recycled)
          !reference
      in
      snaps := (Heap.snapshot h, live) :: !snaps
    | Restore i -> (
      match nth_opt_mod !snaps i with
      | Some (s, live) ->
        Heap.restore h s;
        reference := live
      | None -> ())
  in
  List.iter
    (fun op ->
      step op;
      check_owner_map h !reference)
    ops;
  true

let owner_map_exact ?(count = 150) name config =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:("owner map is exact: " ^ name) ~count
       arb_owner_ops (run_owner_ops config))

(* The oracle is the owner map alone: one int32 head per segment plus
   one object slot per two segments. Only the heads' own block (header,
   record field, padding) comes on top, a few words that do not grow with
   the arena, so a plane with a byte (or more) per arena byte fails. *)
let test_oracle_footprint () =
  List.iter
    (fun size ->
      let segments = size / 8 in
      let owner_planes =
        ( Bytes.make (4 * segments) '\255',
          (Array.make ((segments + 1) / 2) None : Memobj.t option array),
          size,
          (Dirty.create ~size : unit Dirty.t) )
      in
      let words =
        Obj.reachable_words (Obj.repr (Oracle.create ~arena_size:size))
      in
      let planes_words = Obj.reachable_words (Obj.repr owner_planes) in
      if words > planes_words + 4 then
        Alcotest.failf
          "%d-byte arena: oracle takes %d words, its owner planes %d" size
          words planes_words)
    [ 1 lsl 16; 1 lsl 20 ]

(* Derived byte states equal the per-byte plane the oracle used to keep.
   The reference plane is written exactly as that plane was: on malloc,
   [Redzone] / [Addressable] / [Redzone] over the block's three parts; on
   a successful free, [Freed] over the object; [Unallocated] over every
   block that leaves quarantine, through [free]'s [evicted] list or the
   evict hook of a pressure flush. A snapshot copies the plane and a
   restore copies it back. After every step each byte's [Oracle.state]
   must equal the plane. *)
let state_char = function
  | Oracle.Unallocated -> 'u'
  | Addressable -> 'a'
  | Redzone -> 'r'
  | Freed -> 'f'

let set_plane plane ~lo ~hi st = Bytes.fill plane lo (hi - lo) (state_char st)

let recycle_plane plane (o : Memobj.t) =
  set_plane plane ~lo:o.block_base ~hi:(Memobj.block_end o) Oracle.Unallocated

let check_states h plane =
  let o = Heap.oracle h in
  Bytes.iteri
    (fun addr want ->
      let got = state_char (Oracle.state o addr) in
      if got <> want then
        QCheck.Test.fail_reportf "state of byte %d: got %c, want %c" addr got
          want)
    plane

let run_state_ops config ops =
  let h = Heap.create config in
  let plane = Bytes.make (Arena.size (Heap.arena h)) (state_char Unallocated) in
  Heap.set_evict_hook h (recycle_plane plane);
  let seen = ref [] and snaps = ref [] in
  let free ptr =
    match Heap.free h ptr with
    | Ok { Heap.freed = o; evicted } ->
      set_plane plane ~lo:o.base ~hi:(o.base + o.size) Oracle.Freed;
      List.iter (recycle_plane plane) evicted
    | Error _ -> ()
  in
  let step = function
    | Alloc (kind, size) -> (
      match Heap.malloc h ~kind size with
      | o ->
        let base = o.Memobj.base in
        set_plane plane ~lo:o.block_base ~hi:base Oracle.Redzone;
        set_plane plane ~lo:base ~hi:(base + size) Oracle.Addressable;
        set_plane plane ~lo:(base + size) ~hi:(Memobj.block_end o)
          Oracle.Redzone;
        seen := o :: !seen
      | exception Out_of_memory -> ())
    | Free_live i -> (
      let live =
        List.filter (fun (o : Memobj.t) -> o.status = Memobj.Live) !seen
      in
      match nth_opt_mod live i with Some o -> free o.base | None -> ())
    | Free_any i -> (
      match nth_opt_mod !seen i with Some o -> free o.base | None -> ())
    | Free_interior (i, k) -> (
      match nth_opt_mod !seen i with
      | Some o -> free (o.block_base + (k mod o.block_len))
      | None -> ())
    | Snap -> snaps := (Heap.snapshot h, Bytes.copy plane) :: !snaps
    | Restore i -> (
      match nth_opt_mod !snaps i with
      | Some (s, saved) ->
        Heap.restore h s;
        Bytes.blit saved 0 plane 0 (Bytes.length plane)
      | None -> ())
  in
  List.iter
    (fun op ->
      step op;
      check_states h plane)
    ops;
  true

(* Size 0 (a block of redzone alone) drawn often, not once in 300. *)
let arb_state_ops =
  arb_ops
    QCheck.Gen.(
      frequency
        [ (1, return 0); (4, int_range 1 300); (1, int_range 992 2016) ])

let states_derived ?(count = 100) name config =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:("derived states: " ^ name) ~count arb_state_ops
       (run_state_ops config))

(* {1 The free cache against its Hashtbl twin}

   test/heap_reference.ml is the allocator as it was while its free cache
   was a [Hashtbl]. Both run one op stream in lockstep, on arenas small
   enough that the bump pointer runs out, so first fit, its remainder
   split and pressure flushes all happen; every object either hands out
   must match the other's in place and status after every step, as must
   every free's result and the quarantine. *)

let twin_config (c : Heap.config) =
  {
    Heap_reference.arena_size = c.arena_size;
    redzone = c.redzone;
    quarantine_budget = c.quarantine_budget;
  }

let ids = List.map (fun (o : Memobj.t) -> o.id)
let show_ids objs = String.concat ";" (List.map string_of_int (ids objs))

let free_result = function
  | Ok { Heap.freed; evicted } ->
    Printf.sprintf "ok #%d, evicted [%s]" freed.id (show_ids evicted)
  | Error Heap.Free_null -> "null"
  | Error Invalid_free -> "invalid"
  | Error Free_not_at_start -> "not at start"
  | Error Double_free -> "double"

let twin_free_result = function
  | Ok { Heap_reference.freed; evicted } ->
    Printf.sprintf "ok #%d, evicted [%s]" freed.id (show_ids evicted)
  | Error Heap_reference.Free_null -> "null"
  | Error Invalid_free -> "invalid"
  | Error Free_not_at_start -> "not at start"
  | Error Double_free -> "double"

(* The snapshot's status list under both dedupes of the objects reachable
   from the owner map and from the quarantine [queue] (oldest first): the
   twin's, by id through a [Hashtbl], and [Heap.snapshot]'s, which skips a
   queued object exactly when it is the owner at its [block_base]. *)
let statuses_by_id h queue =
  let seen = Hashtbl.create 64 in
  let note acc (o : Memobj.t) =
    if Hashtbl.mem seen o.id then acc
    else begin
      Hashtbl.add seen o.id ();
      (o, o.status) :: acc
    end
  in
  List.fold_left note (Oracle.fold_owners (Heap.oracle h) note []) queue

let statuses_by_owner h queue =
  let note acc (o : Memobj.t) = (o, o.status) :: acc in
  List.fold_left
    (fun acc (o : Memobj.t) ->
      match Oracle.owner (Heap.oracle h) o.block_base with
      | Some w when w == o -> acc
      | Some _ | None -> note acc o)
    (Oracle.fold_owners (Heap.oracle h) note [])
    queue

let run_twin_ops config ops =
  let h = Heap.create config in
  let r = Heap_reference.create (twin_config config) in
  (* [objs]: every object handed out, as (heap's, twin's), newest first.
     [queue]: the heap's quarantine as objects, oldest first, kept from
     free results and the evict hook. *)
  let objs = ref [] and queue = ref [] and snaps = ref [] in
  let leave evicted =
    queue := List.filter (fun q -> not (List.memq q evicted)) !queue
  in
  Heap.set_evict_hook h (fun o -> leave [ o ]);
  let free ptr =
    let got = Heap.free h ptr and want = Heap_reference.free r ptr in
    (match got with
     | Ok { Heap.freed; evicted } ->
       queue := !queue @ [ freed ];
       leave evicted
     | Error _ -> ());
    let got = free_result got and want = twin_free_result want in
    if got <> want then
      QCheck.Test.fail_reportf "free %d: got %s, twin %s" ptr got want
  in
  let step = function
    | Alloc (kind, size) -> (
      let got =
        try Some (Heap.malloc h ~kind size) with Out_of_memory -> None
      in
      let want =
        try Some (Heap_reference.malloc r ~kind size)
        with Out_of_memory -> None
      in
      match (got, want) with
      | Some a, Some b -> objs := (a, b) :: !objs
      | None, None -> ()
      | Some _, None | None, Some _ ->
        QCheck.Test.fail_reportf "malloc %d: only one heap ran out of memory"
          size)
    | Free_live i -> (
      let live =
        List.filter (fun ((o : Memobj.t), _) -> o.status = Memobj.Live) !objs
      in
      match nth_opt_mod live i with Some (o, _) -> free o.base | None -> ())
    | Free_any i -> (
      match nth_opt_mod !objs i with Some (o, _) -> free o.base | None -> ())
    | Free_interior (i, k) -> (
      match nth_opt_mod !objs i with
      | Some (o, _) -> free (o.block_base + (k mod o.block_len))
      | None -> ())
    | Snap ->
      let by_id = statuses_by_id h !queue in
      let by_owner = statuses_by_owner h !queue in
      let same (a, s) (b, t) = a == b && s = t in
      if not (List.equal same by_id by_owner) then
        QCheck.Test.fail_reportf "snapshot statuses: by id [%s], by owner [%s]"
          (show_ids (List.map fst by_id))
          (show_ids (List.map fst by_owner));
      snaps := (Heap.snapshot h, Heap_reference.snapshot r, !queue) :: !snaps
    | Restore i -> (
      match nth_opt_mod !snaps i with
      | Some (s, s', q) ->
        Heap.restore h s;
        Heap_reference.restore r s';
        queue := q
      | None -> ())
  in
  let check () =
    List.iter
      (fun ((a : Memobj.t), (b : Memobj.t)) ->
        if
          a.base <> b.base || a.block_len <> b.block_len
          || a.status <> b.status
        then
          QCheck.Test.fail_reportf "object %a, block %d; twin %a, block %d"
            Memobj.pp a a.block_len Memobj.pp b b.block_len)
      !objs;
    let pair what got want =
      if got <> want then
        QCheck.Test.fail_reportf "%s: %d, twin %d" what got want
    in
    pair "pressure_flushes" (Heap.pressure_flushes h)
      (Heap_reference.pressure_flushes r);
    pair "live_bytes" (Heap.live_bytes h) (Heap_reference.live_bytes r);
    let q = Heap.quarantine_ids h in
    if q <> Heap_reference.quarantine_ids r || q <> ids !queue then
      QCheck.Test.fail_reportf "quarantine [%s], twin [%s], model [%s]"
        (String.concat ";" (List.map string_of_int q))
        (String.concat ";"
           (List.map string_of_int (Heap_reference.quarantine_ids r)))
        (show_ids !queue)
  in
  List.iter
    (fun op ->
      step op;
      check ())
    ops;
  true

let free_cache_twin ?(count = 300) name config =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:("free cache = Hashtbl twin: " ^ name) ~count
       arb_state_ops (run_twin_ops config))

let suite =
  ( "memsim",
    [
      Helpers.qt "arena: load/store round-trip" `Quick test_arena_roundtrip;
      Helpers.qt "arena: fill and blit" `Quick test_arena_fill_blit;
      Helpers.qt "arena: bounds checked" `Quick test_arena_bounds;
      Helpers.qt "heap: 8-byte alignment" `Quick test_malloc_alignment;
      Helpers.qt "heap: redzones surround objects" `Quick test_malloc_redzones;
      Helpers.qt "heap: blocks never overlap" `Quick test_malloc_no_overlap;
      Helpers.qt "heap: free error taxonomy" `Quick test_free_and_errors;
      Helpers.qt "heap: freed bytes poisoned" `Quick test_freed_state;
      Helpers.qt "quarantine: FIFO with byte budget" `Quick test_quarantine_fifo;
      Helpers.qt "quarantine: zero budget is one-deep" `Quick
        test_quarantine_recycling;
      Helpers.qt "quarantine: oversized block bypasses budget" `Quick
        test_quarantine_bypass_counter;
      Helpers.qt "heap: pressure flush under exhaustion" `Quick
        test_pressure_flush;
      Helpers.qt "heap: chaos OOM countdown" `Quick test_chaos_oom_countdown;
      Helpers.qt "heap: stack frames skip quarantine" `Quick
        test_stack_objects_recycle_immediately;
      Helpers.qt "heap: owner lookup" `Quick test_owner_lookup;
      Helpers.qt "heap: out of memory" `Quick test_out_of_memory;
      Helpers.qt "heap: live byte accounting" `Quick test_live_bytes;
      Helpers.qt "oracle: first_bad" `Quick test_oracle_first_bad;
      Helpers.qt "heap: first-fit splits recycled blocks" `Quick
        test_first_fit_reuse;
      Helpers.qt "heap: malloc(0)" `Quick test_malloc_zero;
      Helpers.qt "arena: restoring an older snapshot" `Quick
        test_arena_restore_older_snapshot;
      Helpers.qt "heap: restoring an older snapshot (oracle included)" `Quick
        test_heap_restore_older_snapshot;
      owner_map_exact "redzone 1"
        { Heap.arena_size = 1 lsl 14; redzone = 1; quarantine_budget = 1024 };
      owner_map_exact "odd segment count"
        { Heap.arena_size = 8 * 1001; redzone = 16; quarantine_budget = 2048 };
      owner_map_exact "small arena, splits and flushes"
        { Heap.arena_size = 2048; redzone = 16; quarantine_budget = 512 };
      owner_map_exact ~count:8 "default config" Heap.default_config;
      Helpers.qt "oracle: footprint, no byte plane" `Quick
        test_oracle_footprint;
      states_derived "redzone 1, splits and flushes"
        { Heap.arena_size = 4096; redzone = 1; quarantine_budget = 512 };
      states_derived "redzone 16, splits and flushes"
        { Heap.arena_size = 2048; redzone = 16; quarantine_budget = 512 };
      states_derived "redzone 512"
        { Heap.arena_size = 1 lsl 14; redzone = 512; quarantine_budget = 4096 };
      free_cache_twin "redzone 16, splits and flushes"
        { Heap.arena_size = 2048; redzone = 16; quarantine_budget = 512 };
      free_cache_twin "redzone 1, zero budget"
        { Heap.arena_size = 4096; redzone = 1; quarantine_budget = 0 };
      free_cache_twin "redzone 16, 16 KiB"
        { Heap.arena_size = 1 lsl 14; redzone = 16; quarantine_budget = 2048 };
    ] )
