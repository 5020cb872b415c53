(* The executable-specification suites: the pure model's own refinement
   units (quarantine FIFO, placement validation), every optimized kernel
   against its scalar reference, and the lockstep harness with its
   mutation kills. These are the properties that license the unsafe
   kernels; everything else in the test tree can assume them. *)

module Memsim = Giantsan_memsim
module Heap = Memsim.Heap
module Memobj = Memsim.Memobj
module Arena = Memsim.Arena
module Shadow_mem = Giantsan_shadow.Shadow_mem
module SC = Giantsan_core.State_code
module Folding = Giantsan_core.Folding
module Linear_encoding = Giantsan_core.Linear_encoding
module RC = Giantsan_core.Region_check
module Gs_runtime = Giantsan_core.Gs_runtime
module San = Giantsan_sanitizer.Sanitizer
module Report = Giantsan_sanitizer.Report
module Interceptors = Giantsan_sanitizer.Interceptors
module Rng = Giantsan_util.Rng
module Model = Giantsan_spec.Model
module Ref_kernel = Giantsan_spec.Ref_kernel
module Refine = Giantsan_spec.Refine
module Backend = Giantsan_policy.Backend
module Pac = Giantsan_pac.Pac
module Counters = Giantsan_sanitizer.Counters

let qt = Alcotest.test_case

let q ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb prop)

(* ------------------------------------------------------------------ *)
(* spec-model: the pure model's own refinement units                   *)
(* ------------------------------------------------------------------ *)

(* Drive the REAL allocator and the model side by side through a
   quarantine-churning schedule and compare the FIFO view after every
   operation. *)
let lockstep_heap config ops =
  let heap = Heap.create config in
  let model = ref (Model.create config) in
  let objs = ref [] in
  let agree what =
    Alcotest.(check (list int))
      (what ^ ": quarantine ids")
      (Heap.quarantine_ids heap)
      (Model.quarantine_ids !model);
    Alcotest.(check int)
      (what ^ ": held bytes")
      (Heap.quarantine_held heap)
      (Model.quarantine_held !model);
    Alcotest.(check int)
      (what ^ ": bypasses")
      (Heap.quarantine_bypasses heap)
      (Model.quarantine_bypasses !model)
  in
  List.iter
    (fun op ->
      (match op with
      | `Alloc size ->
        let obj = Heap.malloc heap size in
        objs := !objs @ [ obj ];
        (match
           Model.alloc !model ~kind:Memobj.Heap ~size
             (Model.placement_of_obj obj)
         with
        | Ok m -> model := m
        | Error e -> Alcotest.failf "model rejected a real placement: %s" e)
      | `Free i -> (
        let obj = List.nth !objs i in
        let ptr = obj.Memobj.base in
        match (Heap.free heap ptr, Model.free !model ~ptr) with
        | Ok _, Ok m -> model := m
        | Error _, Error _ -> ()
        | Ok _, Error _ -> Alcotest.fail "model rejected a real free"
        | Error _, Ok _ -> Alcotest.fail "model accepted a bad free"));
      agree "after op")
    ops

let churn_config =
  { Heap.arena_size = 4096; redzone = 16; quarantine_budget = 150 }

let test_quarantine_fifo_eviction_order () =
  (* blocks of size 24 are 56 bytes; a 150-byte budget holds two, so the
     third free must evict the OLDEST — and the model is a plain list
     append + head drop, so agreement is exactly FIFO order *)
  lockstep_heap churn_config
    [
      `Alloc 24; `Alloc 24; `Alloc 24; `Alloc 24;
      `Free 0; `Free 1; `Free 2; `Free 3;
    ]

let test_quarantine_budget0_one_deep () =
  (* budget 0: every free still quarantines the newcomer (never evict the
     block being freed), evicting the previous tenant and counting a
     bypass each time *)
  let config = { churn_config with Heap.quarantine_budget = 0 } in
  let heap = Heap.create config in
  let model = ref (Model.create config) in
  let o1 = Heap.malloc heap 24 and o2 = Heap.malloc heap 24 in
  List.iter
    (fun (o : Memobj.t) ->
      (match
         Model.alloc !model ~kind:Memobj.Heap ~size:o.Memobj.size
           (Model.placement_of_obj o)
       with
      | Ok m -> model := m
      | Error e -> Alcotest.failf "placement rejected: %s" e);
      (match (Heap.free heap o.Memobj.base, Model.free !model ~ptr:o.Memobj.base) with
      | Ok _, Ok m -> model := m
      | _ -> Alcotest.fail "free disagreement");
      Alcotest.(check (list int))
        "exactly the newcomer is retained"
        [ o.Memobj.id ]
        (Heap.quarantine_ids heap);
      Alcotest.(check (list int))
        "model agrees" [ o.Memobj.id ]
        (Model.quarantine_ids !model))
    [ o1; o2 ];
  Alcotest.(check int) "one bypass per over-budget newcomer" 2
    (Heap.quarantine_bypasses heap);
  Alcotest.(check int) "model counted the same bypasses" 2
    (Model.quarantine_bypasses !model)

let test_quarantine_random_churn =
  q ~count:60 "random alloc/free churn refines the pure FIFO"
    QCheck.small_int
    (fun seed ->
      let rng = Rng.create (seed + 77) in
      let ops = ref [] in
      let allocated = ref 0 in
      for _ = 1 to 24 do
        if !allocated = 0 || Rng.int rng 3 < 2 then begin
          ops := `Alloc (Rng.int_in rng 0 80) :: !ops;
          incr allocated
        end
        else ops := `Free (Rng.int rng !allocated) :: !ops
      done;
      lockstep_heap churn_config (List.rev !ops);
      true)

let test_placement_validation_has_teeth () =
  let m = Model.create churn_config in
  let reject what p =
    match Model.alloc m ~kind:Memobj.Heap ~size:24 p with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "spec accepted %s" what
  in
  reject "a misaligned base"
    { Model.p_id = 1; p_base = 84; p_block_base = 80; p_block_len = 64 };
  reject "a block inside the null guard"
    { Model.p_id = 1; p_base = 16 + 16; p_block_base = 16; p_block_len = 64 };
  reject "a block past the arena end"
    {
      Model.p_id = 1;
      p_base = 4080 + 16;
      p_block_base = 4080;
      p_block_len = 64;
    };
  reject "a block with no room for the redzones"
    { Model.p_id = 1; p_base = 80 + 16; p_block_base = 80; p_block_len = 32 };
  (* a legal placement, then an overlapping one *)
  match
    Model.alloc m ~kind:Memobj.Heap ~size:24
      { Model.p_id = 1; p_base = 96; p_block_base = 80; p_block_len = 64 }
  with
  | Error e -> Alcotest.failf "spec rejected a legal placement: %s" e
  | Ok m ->
    (match
       Model.alloc m ~kind:Memobj.Heap ~size:24
         { Model.p_id = 2; p_base = 128; p_block_base = 112; p_block_len = 64 }
     with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "spec accepted an overlapping block")

(* ------------------------------------------------------------------ *)
(* spec-kernels: every optimized kernel against its scalar reference   *)
(* ------------------------------------------------------------------ *)

(* A random well-formed scene: live and freed objects through the real
   GiantSan runtime, shadow exposed, reference snapshot taken. *)
let scene seed =
  let rng = Rng.create (seed + 1371) in
  let config =
    { Heap.arena_size = 2048; redzone = 16; quarantine_budget = 512 }
  in
  let san, m = Gs_runtime.create_exposed config in
  (try
     for _ = 1 to Rng.int_in rng 2 9 do
       let obj = san.San.malloc (Rng.int_in rng 0 180) in
       if Rng.int rng 3 = 0 then ignore (san.San.free obj.Memsim.Memobj.base)
     done
   with Out_of_memory -> ());
  (san, m, Ref_kernel.of_shadow m, rng)

let test_region_check_matches_reference =
  q ~count:120 "Region_check.check_unaligned = byte-wise reference"
    QCheck.small_int
    (fun seed ->
      let _, m, r, rng = scene seed in
      let arena_end = 8 * Shadow_mem.segments m in
      let ok = ref true in
      for _ = 1 to 48 do
        (* unaligned starts, zero and negative lengths, arena-end
           straddles — every generator obligation from the satellites *)
        let l = Rng.int rng (arena_end + 16) in
        let len = Rng.int_in rng (-8) 72 in
        let real = RC.check_unaligned m ~l ~r:(l + len) in
        let reference = Ref_kernel.region_check_unaligned r ~l ~r:(l + len) in
        (match (real, reference) with
        | (RC.Safe_fast | RC.Safe_slow | RC.Safe_word), `Safe -> ()
        | RC.Bad a, `Bad _ ->
          (* blame containment: anywhere in the aligned window *)
          if not (a >= l land lnot 7 && a < l + len) then ok := false
        | (RC.Safe_fast | RC.Safe_slow | RC.Safe_word), `Bad _
        | RC.Bad _, `Safe ->
          ok := false);
        ignore (Shadow_mem.loads m)
      done;
      !ok)

let test_word_check_matches_scalar =
  q ~count:120 "word check path = scalar Algorithm 1, corrupted shadows too"
    QCheck.small_int
    (fun seed ->
      let san, m, _, rng = scene seed in
      (* plant a misfolded allocation (armed fault plan) and raw pokes: the
         word kernel extracts the scalar probe bytes from one load, so it
         must agree on ANY shadow contents — a misfold has to make both
         paths diverge from the truth identically, never from each other *)
      (try
         ignore
           (Folding.with_fault
              (Some (Folding.Overstate_last (1 + Rng.int rng 6)))
              (fun () -> san.San.malloc (8 * Rng.int_in rng 3 20)))
       with Out_of_memory -> ());
      for _ = 1 to 6 do
        Shadow_mem.poke m (Rng.int rng (Shadow_mem.segments m)) (Rng.int rng 256)
      done;
      let arena_end = 8 * Shadow_mem.segments m in
      let ok = ref true in
      for _ = 1 to 64 do
        (* aligned spans <= 64 bytes dispatch to the word kernel, including
           arena-end straddles and fully out-of-arena starts *)
        let l = 8 * Rng.int rng ((arena_end / 8) + 2) in
        let len = Rng.int_in rng 1 64 in
        let before = Shadow_mem.loads m in
        let word = RC.check m ~l ~r:(l + len) in
        let word_loads = Shadow_mem.loads m - before in
        let scalar = RC.check_scalar m ~l ~r:(l + len) in
        (match (word, scalar) with
        | RC.Safe_word, (RC.Safe_fast | RC.Safe_slow) -> ()
        | RC.Bad a, RC.Bad b -> if a <> b then ok := false
        | _ -> ok := false);
        (* the whole verdict costs one counted load (zero past the arena) *)
        let expect_loads = if l < arena_end then 1 else 0 in
        if word_loads <> expect_loads then ok := false
      done;
      (* unaligned wrapper vs its scalar twin: unaligned l and r, zero and
         negative lengths *)
      for _ = 1 to 32 do
        let l = Rng.int rng (arena_end + 16) in
        let len = Rng.int_in rng (-8) 72 in
        let a = RC.check_unaligned m ~l ~r:(l + len)
        and b = Ref_kernel.check_unaligned_scalar m ~l ~r:(l + len) in
        match (a, b) with
        | ( (RC.Safe_fast | RC.Safe_slow | RC.Safe_word),
            (RC.Safe_fast | RC.Safe_slow | RC.Safe_word) ) -> ()
        | RC.Bad x, RC.Bad y -> if x <> y then ok := false
        | _ -> ok := false
      done;
      !ok)

let test_load_word_matches_reference =
  q ~count:120 "Shadow_mem.load_word = eight-peek reference, counting exact"
    QCheck.small_int
    (fun seed ->
      let _, m, r, rng = scene seed in
      let n = Shadow_mem.segments m in
      let ok = ref true in
      for _ = 1 to 64 do
        (* in-arena words, arena-end straddles, fully outside, negative *)
        let p = Rng.int_in rng (-12) (n + 12) in
        let w = Ref_kernel.word_at r p in
        let before = Shadow_mem.loads m in
        Shadow_mem.load_word m p;
        let counted = Shadow_mem.loads m - before in
        if counted <> (if Ref_kernel.word_load_counted r p then 1 else 0) then
          ok := false;
        (* peek_word answers the same word without touching the counter *)
        let before = Shadow_mem.loads m in
        if Shadow_mem.peek_word m p <> w then ok := false;
        if Shadow_mem.loads m <> before then ok := false;
        (* the register's lanes = the reference word's lanes = the scalar
           peeks it batches *)
        for k = 0 to 7 do
          if Shadow_mem.word_lane m k <> Shadow_mem.word_byte w k then
            ok := false;
          if Shadow_mem.word_byte w k <> Shadow_mem.peek m (p + k) then
            ok := false
        done
      done;
      !ok)

let test_mru_windows_stay_addressable =
  q ~count:80 "MRU history windows only ever cover addressable bytes"
    QCheck.small_int
    (fun seed ->
      let san, m, _, rng = scene seed in
      match (try Some (san.San.malloc 120) with Out_of_memory -> None) with
      | None -> true
      | Some obj ->
        let r = Ref_kernel.of_shadow m in
        let base = obj.Memsim.Memobj.base + (8 * Rng.int rng 16) in
        let cache = san.San.new_cache ~base in
        let ok = ref true in
        for _ = 1 to 32 do
          let off = Rng.int_in rng (-32) 140 in
          let width = Rng.pick rng [| 1; 2; 4; 8 |] in
          ignore (san.San.cached_access cache ~off ~width);
          (* after every access — note, merge, promote or evict — each
             retained window must re-check clean against the byte-wise
             reference: no merge or eviction may ever leave a cached span
             reaching past the true object extent *)
          List.iter
            (fun (lo, hi) ->
              match Ref_kernel.region_check_unaligned r ~l:lo ~r:hi with
              | `Safe -> ()
              | `Bad _ -> ok := false)
            (San.cache_windows cache)
        done;
        !ok)

let test_upper_bound_matches_reference =
  q ~count:120 "Folding.upper_bound = byte-walk reference" QCheck.small_int
    (fun seed ->
      let _, m, r, rng = scene seed in
      let arena_end = 8 * Shadow_mem.segments m in
      let ok = ref true in
      for _ = 1 to 48 do
        let addr = Rng.int rng arena_end in
        if Folding.upper_bound m ~addr <> Ref_kernel.upper_bound r ~addr then
          ok := false
      done;
      !ok)

let test_lower_bound_sound_per_reference =
  q ~count:120 "Folding.lower_bound stays inside the reference envelope"
    QCheck.small_int
    (fun seed ->
      let _, m, r, rng = scene seed in
      let arena_end = 8 * Shadow_mem.segments m in
      let ok = ref true in
      for _ = 1 to 48 do
        let addr = Rng.int rng arena_end in
        if not (Ref_kernel.lower_bound_sound r ~addr (Folding.lower_bound m ~addr))
        then ok := false
      done;
      !ok)

let test_quasi_bound_matches_reference =
  q ~count:80 "quasi-bound verdicts = reference addressability"
    QCheck.small_int
    (fun seed ->
      let san, m, _, rng = scene seed in
      let objs =
        (* cache bases must be 8-aligned live pointers *)
        match
          try Some (san.San.malloc 96) with Out_of_memory -> None
        with
        | None -> []
        | Some o -> [ o ]
      in
      match objs with
      | [] -> true
      | obj :: _ ->
        let r = Ref_kernel.of_shadow m in
        let base = obj.Memsim.Memobj.base + 8 * Rng.int rng 13 in
        let cache = san.San.new_cache ~base in
        let ok = ref true in
        for _ = 1 to 24 do
          let off = Rng.int_in rng (-24) 120 in
          let width = Rng.pick rng [| 1; 2; 4; 8 |] in
          let verdict =
            match san.San.cached_access cache ~off ~width with
            | None -> true
            | Some _ -> false
          in
          let window_safe ~l ~r:hi =
            match Ref_kernel.region_check_unaligned r ~l ~r:hi with
            | `Safe -> true
            | `Bad _ -> false
          in
          let expected =
            if off < 0 then
              window_safe ~l:(base + off) ~r:base
              && (off + width <= 0 || window_safe ~l:base ~r:(base + off + width))
            else window_safe ~l:base ~r:(base + off + width)
          in
          if verdict <> expected then ok := false
        done;
        !ok)

let test_linear_poison_matches_reference =
  q ~count:120 "Linear_encoding.poison_good_run = reference"
    QCheck.(pair small_nat small_nat)
    (fun (first_pick, count) ->
      let segments = 512 in
      let count = count mod 300 in
      let first_seg = first_pick mod (segments - 300) in
      let m = Shadow_mem.create ~segments ~fill:SC.unallocated in
      let r = Ref_kernel.create ~segments ~fill:SC.unallocated in
      Linear_encoding.poison_good_run m ~first_seg ~count;
      Ref_kernel.linear_poison_good_run r ~first_seg ~count;
      let same = ref (Shadow_mem.stores m = Ref_kernel.stores r) in
      for p = 0 to segments - 1 do
        if Shadow_mem.peek m p <> Ref_kernel.peek r p then same := false
      done;
      !same)

(* ------------------------------------------------------------------ *)
(* spec-refine: the lockstep harness and its mutation kills            *)
(* ------------------------------------------------------------------ *)

let assert_equivalent outcome =
  match outcome with
  | Refine.Equivalent _ -> true
  | Refine.Diverged d ->
    QCheck.Test.fail_reportf "lockstep divergence: %s"
      (Refine.divergence_to_string d)

let test_lockstep_default =
  q ~count:40 "lockstep: the real runtime refines the model"
    QCheck.small_int
    (fun seed -> assert_equivalent (Refine.run ~seed ~steps:150 ()))

let test_lockstep_budget0 =
  q ~count:25 "lockstep under a zero quarantine budget" QCheck.small_int
    (fun seed ->
      let config =
        { Heap.arena_size = 2048; redzone = 16; quarantine_budget = 0 }
      in
      assert_equivalent (Refine.run ~config ~seed ~steps:150 ()))

let test_lockstep_pressure =
  q ~count:25 "lockstep under allocation pressure (tiny arena)"
    QCheck.small_int
    (fun seed ->
      let config =
        { Heap.arena_size = 768; redzone = 16; quarantine_budget = 256 }
      in
      assert_equivalent (Refine.run ~config ~seed ~steps:150 ()))

let mutation_kill_test m =
  qt
    (Printf.sprintf "mutation kill: %s" (Refine.mutation_name m))
    `Quick
    (fun () ->
      List.iter
        (fun seed ->
          let killed, detail = Refine.check_mutation ~seed ~steps:24 m in
          if not killed then
            Alcotest.failf "mutant survived (seed %d): %s" seed detail)
        [ 3; 7; 11; 42 ])

(* ------------------------------------------------------------------ *)
(* memcpy/memset edges across all four backends (satellite 4)          *)
(* ------------------------------------------------------------------ *)

let backend_config =
  { Heap.arena_size = 1024; redzone = 16; quarantine_budget = 256 }

let backends : (string * (unit -> San.t)) list =
  List.map
    (fun id -> (Backend.name id, fun () -> Backend.create id backend_config))
    Backend.[ Giantsan; Asan; Lfp; Native ]

(* Mirror of the clamped data plane: Interceptors.memmove/memset run the
   data operation only when every region check passed, and clamp it to the
   arena so an undetected wild operation (Native has no detector) stays a
   MISSED DETECTION instead of a crash. The mirror applies the same rule
   to a plain Bytes copy of the arena; the arena must match it byte for
   byte afterwards — overlap, adjacency, zero length and out-of-bounds
   included. *)
let test_memcpy_memset_edges_all_backends =
  q ~count:60 "memcpy/memset overlap+adjacency edges, all four backends"
    QCheck.small_int
    (fun seed ->
      List.for_all
        (fun (bname, make) ->
          let san = make () in
          let rng = Rng.create ((seed * 7) + 13) in
          let limit = Arena.size (Heap.arena san.San.heap) in
          let objs =
            List.filter_map
              (fun size ->
                try Some (san.San.malloc size) with Out_of_memory -> None)
              [ 40; 64; 24 ]
          in
          if objs = [] then true
          else begin
            let arena = Heap.arena san.San.heap in
            let mirror =
              Bytes.init limit (fun i ->
                  Char.chr (Arena.load arena ~addr:i ~width:1))
            in
            let mirror_set ~dst ~n byte =
              if dst >= 0 then begin
                let n = min n (limit - dst) in
                if n > 0 then Bytes.fill mirror dst n (Char.chr (byte land 0xff))
              end
            in
            let mirror_move ~src ~dst ~n =
              if src >= 0 && dst >= 0 then begin
                let n = min n (min (limit - src) (limit - dst)) in
                if n > 0 then Bytes.blit mirror src mirror dst n
              end
            in
            let pick_addr () =
              let o = List.nth objs (Rng.int rng (List.length objs)) in
              o.Memobj.base + Rng.int_in rng (-24) (o.Memobj.size + 24)
            in
            for _ = 1 to 30 do
              if Rng.bool rng then begin
                let dst = pick_addr () and n = Rng.int_in rng 0 48 in
                let byte = Rng.int rng 256 in
                let reports = Interceptors.memset san ~dst ~n ~byte in
                if reports = [] then mirror_set ~dst ~n byte
              end
              else begin
                let src = pick_addr ()
                and dst = pick_addr ()
                and n = Rng.int_in rng 0 48 in
                let reports = Interceptors.memmove san ~dst ~src ~n in
                if reports = [] then mirror_move ~src ~dst ~n
              end
            done;
            let ok = ref true in
            for i = 0 to limit - 1 do
              if Arena.load arena ~addr:i ~width:1 <> Char.code (Bytes.get mirror i)
              then ok := false
            done;
            if not !ok then
              QCheck.Test.fail_reportf "arena/mirror divergence on %s" bname
            else true
          end)
        backends)

(* ------------------------------------------------------------------ *)
(* Fuzz-mode restore = rebuild, all five backends (satellite 4)        *)
(* ------------------------------------------------------------------ *)

(* The fuzz-mode contract, as a property: running prefix -> snapshot ->
   arbitrary drift -> restore -> continuation must land byte-identical —
   arena, metadata plane, quarantine FIFO, every counter — to running
   prefix -> continuation on a fresh runtime. The snapshot is taken
   mid-quarantine-churn (a deterministic warm phase frees into the FIFO
   first), and the comparison covers the PAC salt counter: a restored
   context must re-issue the same salts a fresh one would. *)

let restore_config =
  { Heap.arena_size = 4096; redzone = 16; quarantine_budget = 512 }

let restore_slots = 12

let run_random_ops san (slots : (int * int) option array) rng n =
  for _ = 1 to n do
    match Rng.int rng 6 with
    | 0 | 1 -> (
      let size = Rng.int_in rng 0 96 in
      try
        let obj = san.San.malloc size in
        slots.(Rng.int rng restore_slots) <-
          Some (obj.Memobj.base, obj.Memobj.size)
      with Out_of_memory -> ())
    | 2 -> (
      let i = Rng.int rng restore_slots in
      match slots.(i) with
      | Some (base, _) ->
        ignore (san.San.free base);
        (* sometimes keep the stale slot: later frees become double-frees
           and later accesses UAFs, so error verdicts are compared too *)
        if Rng.int rng 3 < 2 then slots.(i) <- None
      | None -> ())
    | 3 -> (
      match slots.(Rng.int rng restore_slots) with
      | Some (base, size) ->
        let off = Rng.int_in rng (-8) (size + 8) in
        let width = Rng.pick rng [| 1; 2; 4; 8 |] in
        ignore (san.San.access ~base ~addr:(base + off) ~width)
      | None -> ())
    | _ -> (
      match slots.(Rng.int rng restore_slots) with
      | Some (base, size) ->
        let lo = base + Rng.int_in rng (-8) size in
        ignore (san.San.check_region ~lo ~hi:(lo + Rng.int_in rng 0 40))
      | None -> ())
  done

let state_fingerprint san plane =
  let b = Buffer.create 8192 in
  let heap = san.San.heap in
  let arena = Heap.arena heap in
  for i = 0 to Arena.size arena - 1 do
    Buffer.add_char b (Char.chr (Arena.load arena ~addr:i ~width:1))
  done;
  (* the oracle, rewound through its own dirty window: byte states, then
     the owner id of every segment *)
  let oracle = Heap.oracle heap in
  Buffer.add_string b "|oracle=";
  for i = 0 to Arena.size arena - 1 do
    Buffer.add_char b
      (match Memsim.Oracle.state oracle i with
      | Memsim.Oracle.Unallocated -> 'u'
      | Addressable -> 'a'
      | Redzone -> 'r'
      | Freed -> 'f')
  done;
  Buffer.add_string b "|owners=";
  for seg = 0 to Heap.segment_count heap - 1 do
    Buffer.add_string b
      (match Heap.find_object heap (8 * seg) with
      | Some o -> string_of_int o.Memobj.id ^ ","
      | None -> "-,")
  done;
  Buffer.add_string b
    (String.concat ","
       (List.map
          (fun (k, v) -> Printf.sprintf "%s=%d" k v)
          (Counters.to_assoc san.San.counters)));
  Buffer.add_string b
    (Printf.sprintf "|loads=%d stores=%d live=%d flushes=%d byp=%d held=%d q=%s"
       (san.San.shadow_loads ()) (san.San.shadow_stores ())
       (Heap.live_bytes heap) (Heap.pressure_flushes heap)
       (Heap.quarantine_bypasses heap) (Heap.quarantine_held heap)
       (String.concat ","
          (List.map string_of_int (Heap.quarantine_ids heap))));
  (match plane with
  | Backend.Shadow m ->
    Buffer.add_string b "|shadow=";
    for p = 0 to Shadow_mem.segments m - 1 do
      Buffer.add_char b (Char.chr (Shadow_mem.peek m p))
    done
  | Backend.Sigs p ->
    Buffer.add_string b "|sigs=";
    List.iter
      (fun base ->
        Buffer.add_string b
          (Printf.sprintf "%d:%d:%d;" base
             (Option.value ~default:(-1) (Pac.salt_of p ~base))
             (Option.value ~default:(-1) (Pac.pac_of p ~base))))
      (Pac.bases p)
  | Backend.Plain -> ());
  Buffer.contents b

let run_restore_procedure ~with_restore id seed =
  let san, plane = Backend.create_exposed id restore_config in
  let slots = Array.make restore_slots None in
  (* deterministic warm churn: mallocs then frees, so the snapshot below
     lands while the quarantine FIFO is mid-rotation *)
  let warm = Rng.create (seed + 901) in
  run_random_ops san slots warm 24;
  let prefix = Rng.create (seed + 17) in
  run_random_ops san slots prefix 40;
  if with_restore then begin
    san.San.snapshot ();
    let saved = Array.copy slots in
    let churn = Rng.create (seed + 5555) in
    run_random_ops san slots churn 40;
    san.San.restore ();
    Array.blit saved 0 slots 0 restore_slots
  end;
  let cont = Rng.create (seed + 33) in
  run_random_ops san slots cont 40;
  (* the fast/slow partition must survive the rewind on the folded shadow *)
  (if id = Backend.Giantsan then
     let c = san.San.counters in
     if c.Counters.fast_checks + c.Counters.slow_checks
        <> c.Counters.region_checks
     then
       QCheck.Test.fail_reportf
         "giantsan fast/slow partition broken after restore: %d + %d <> %d"
         c.Counters.fast_checks c.Counters.slow_checks
         c.Counters.region_checks);
  state_fingerprint san plane

let test_restore_equals_rebuild_all_backends =
  q ~count:40 "restore-after-random-ops = rebuild-from-scratch, 5 backends"
    QCheck.small_int
    (fun seed ->
      List.for_all
        (fun id ->
          let restored = run_restore_procedure ~with_restore:true id seed in
          let rebuilt = run_restore_procedure ~with_restore:false id seed in
          if String.equal restored rebuilt then true
          else
            QCheck.Test.fail_reportf
              "%s: restored state differs from a from-scratch rebuild \
               (seed %d)"
              (Backend.name id) seed)
        Backend.all)

let () =
  Alcotest.run "giantsan-spec"
    [
      ( "spec-model",
        [
          qt "quarantine eviction order is FIFO" `Quick
            test_quarantine_fifo_eviction_order;
          qt "budget 0 retains exactly the newcomer" `Quick
            test_quarantine_budget0_one_deep;
          test_quarantine_random_churn;
          qt "placement validation has teeth" `Quick
            test_placement_validation_has_teeth;
        ] );
      ( "spec-kernels",
        [
          test_region_check_matches_reference;
          test_word_check_matches_scalar;
          test_load_word_matches_reference;
          test_mru_windows_stay_addressable;
          test_upper_bound_matches_reference;
          test_lower_bound_sound_per_reference;
          test_quasi_bound_matches_reference;
          test_linear_poison_matches_reference;
        ] );
      ( "spec-refine",
        test_lockstep_default :: test_lockstep_budget0 :: test_lockstep_pressure
        :: test_memcpy_memset_edges_all_backends
        :: test_restore_equals_rebuild_all_backends
        :: List.map mutation_kill_test Refine.all_mutations );
    ]
