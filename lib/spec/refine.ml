module Rng = Giantsan_util.Rng
module Memsim = Giantsan_memsim
module Heap = Memsim.Heap
module Memobj = Memsim.Memobj
module Arena = Memsim.Arena
module Oracle = Memsim.Oracle
module Shadow_mem = Giantsan_shadow.Shadow_mem
module State_code = Giantsan_core.State_code
module Folding = Giantsan_core.Folding
module Gs_runtime = Giantsan_core.Gs_runtime
module San = Giantsan_sanitizer.Sanitizer
module Counters = Giantsan_sanitizer.Counters
module Report = Giantsan_sanitizer.Report
module Interceptors = Giantsan_sanitizer.Interceptors

(* The refinement harness: run the real GiantSan runtime and the pure
   [Model] in lockstep over a seeded stream of operations (allocs of every
   kind, frees good and bad, realloc, anchored and wild accesses, cached
   access loops that straddle offset 0, region checks that straddle the
   arena end, memcpy/memset with overlap), and after EVERY step audit full
   state equivalence:

   - every shadow segment equals the model's pure shadow function;
   - every arena byte equals the model's data map;
   - the quarantine queue (ids, order, held bytes, bypasses) equals the
     model's FIFO;
   - live-byte and pressure-flush accounting agree;
   - the counter partition invariant (fast + slow = region checks) holds;

   and per operation check report equivalence: a report is produced exactly
   when the model says the checked window is not fully addressable, the
   blamed address falls inside the checked window, and the report kind
   equals the model's classification of that address.

   The same harness doubles as its own mutation test: a seeded shadow-plane
   fault (bit flip, stale free code, overclaim, misfolded poisoning) must
   ALWAYS produce a divergence on the very next audit — proof the harness
   has teeth. *)

type mutation =
  | M_bit_flip of int
  | M_stale_free
  | M_overclaim
  | M_misfold of int

let mutation_name = function
  | M_bit_flip m -> Printf.sprintf "bit-flip x%02x" (m land 0xff)
  | M_stale_free -> "stale-free"
  | M_overclaim -> "overclaim"
  | M_misfold d -> Printf.sprintf "misfold d=%d" d

let all_mutations = [ M_bit_flip 0x11; M_stale_free; M_overclaim; M_misfold 2 ]

type divergence = { d_step : int; d_op : string; d_detail : string }

let divergence_to_string d =
  Printf.sprintf "step %d (%s): %s" d.d_step d.d_op d.d_detail

type outcome =
  | Equivalent of { steps : int; reports : int; allocs : int; frees : int }
  | Diverged of divergence

exception Mismatch of string

let fail fmt = Printf.ksprintf (fun s -> raise (Mismatch s)) fmt

let default_config =
  { Heap.arena_size = 2048; redzone = 16; quarantine_budget = 512 }

type slot = { s_base : int; s_size : int }

type ctx = {
  san : San.t;
  shadow : Shadow_mem.t;
  mutable model : Model.t;
  slots : slot option array;
  mutable flushes_seen : int;
  mutable reports : int;
  mutable allocs : int;
  mutable frees : int;
}

let n_slots = 8

(* A pressure flush inside [Heap.malloc] empties the whole quarantine
   before the placement decision (and can even precede an
   [Out_of_memory]); fold the same flush into the model first so the
   subsequent placement validates against post-flush ownership. *)
let sync_pressure ctx =
  let real = Heap.pressure_flushes ctx.san.San.heap in
  while ctx.flushes_seen < real do
    ctx.model <- Model.flush_quarantine ctx.model;
    ctx.flushes_seen <- ctx.flushes_seen + 1
  done

(* ------------------------------------------------------------------ *)
(* Report equivalence                                                  *)
(* ------------------------------------------------------------------ *)

(* [windows] are the regions the real runtime checks, in order; the model
   predicts a report exactly when some window is not fully addressable.
   The optimized checker may blame any byte of the bad window (after
   aligning its start down to a segment boundary) — including an
   addressable one when a fold's suffix test fires — so the blame check is
   containment plus classification, not byte equality. *)
let check_report ctx ~what ~windows ~anchor (real : Report.t option) =
  let bad =
    List.find_opt
      (fun (lo, hi) -> not (Model.range_addressable ctx.model ~lo ~hi))
      windows
  in
  match (real, bad) with
  | None, None -> ()
  | None, Some (lo, hi) ->
    fail "%s: model says [%d, %d) is not addressable but no report was made"
      what lo hi
  | Some r, None ->
    fail "%s: false positive %s (model says every checked window is clean)"
      what (Report.to_string r)
  | Some r, Some (lo, hi) ->
    ctx.reports <- ctx.reports + 1;
    let a = r.Report.addr in
    if a < lo land lnot 7 || a >= hi then
      fail "%s: blamed address %d outside the bad window [%d, %d)" what a lo hi;
    let expect_kind = Model.classify ctx.model ~addr:a ~base:anchor in
    if r.Report.kind <> expect_kind then
      fail "%s: report kind %s but the model classifies address %d as %s" what
        (Report.kind_name r.Report.kind)
        a
        (Report.kind_name expect_kind)

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)
(* ------------------------------------------------------------------ *)

let exec_alloc ctx ~slot ~kind ~size =
  ctx.allocs <- ctx.allocs + 1;
  match ctx.san.San.malloc ~kind size with
  | exception Out_of_memory -> sync_pressure ctx
  | obj ->
    sync_pressure ctx;
    (match
       Model.alloc ctx.model ~kind ~size (Model.placement_of_obj obj)
     with
    | Ok m -> ctx.model <- m
    | Error e -> fail "placement rejected by the spec: %s" e);
    ctx.slots.(slot) <- Some { s_base = obj.Memobj.base; s_size = size }

let exec_free ctx ~ptr =
  ctx.frees <- ctx.frees + 1;
  let real = ctx.san.San.free ptr in
  match Model.free ctx.model ~ptr with
  | Ok m -> (
    ctx.model <- m;
    match real with
    | None -> ()
    | Some r ->
      fail "free of a valid pointer reported %s" (Report.to_string r))
  | Error e -> (
    let expected = San.free_error_report ~name:ctx.san.San.name ~addr:ptr e in
    match (real, expected) with
    | None, None -> ()
    | Some r, Some x when r.Report.kind = x.Report.kind && r.Report.addr = ptr
      ->
      ctx.reports <- ctx.reports + 1
    | _ ->
      fail "free error mismatch: real %s, model %s"
        (match real with None -> "no report" | Some r -> Report.to_string r)
        (match expected with
        | None -> "no report"
        | Some r -> Report.kind_name r.Report.kind))

(* The anchored-access windows of Gs_runtime.access: everything between
   the anchor and the access on the overflow side; a dedicated
   [addr, base) check plus the non-negative tail on the underflow side. *)
let access_windows ~base ~addr ~width =
  if base > 0 && addr >= base then [ (base, addr + width) ]
  else if base > 0 then
    (addr, base)
    :: (if addr + width > base then [ (base, addr + width) ] else [])
  else [ (addr, addr + width) ]

let exec_access ctx ~base ~addr ~width =
  let real = ctx.san.San.access ~base ~addr ~width in
  check_report ctx ~what:"access"
    ~windows:(access_windows ~base ~addr ~width)
    ~anchor:(if base > 0 then Some base else None)
    real

(* A cached-access loop: same windows per iteration as a plain anchored
   access (the quasi-bound only elides re-checks it has already vouched
   for), plus a loop-exit flush that must stay silent — nothing is freed
   inside the loop, so the cached upper bound only ever covers addressable
   bytes. *)
let exec_loop ctx ~cbase ~offs ~width =
  let cache = ctx.san.San.new_cache ~base:cbase in
  List.iter
    (fun off ->
      let addr = cbase + off in
      let real = ctx.san.San.cached_access cache ~off ~width in
      check_report ctx ~what:"cached access"
        ~windows:(access_windows ~base:cbase ~addr ~width)
        ~anchor:(Some cbase) real)
    offs;
  match ctx.san.San.flush_cache cache with
  | None -> ()
  | Some r ->
    fail "loop-exit flush reported %s with no intra-loop free"
      (Report.to_string r)

let exec_region ctx ~lo ~len =
  let real = ctx.san.San.check_region ~lo ~hi:(lo + len) in
  check_report ctx ~what:"region check"
    ~windows:[ (lo, lo + len) ]
    ~anchor:(Some lo) real

let exec_memset ctx ~dst ~n ~byte =
  let reports = Interceptors.memset ctx.san ~dst ~n ~byte in
  if n <= 0 then begin
    if reports <> [] then fail "memset with n=%d produced a report" n
  end
  else begin
    (match reports with
    | [] -> ()
    | [ r ] ->
      check_report ctx ~what:"memset" ~windows:[ (dst, dst + n) ]
        ~anchor:(Some dst) (Some r)
    | _ -> fail "memset produced %d reports" (List.length reports));
    if reports = [] then begin
      check_report ctx ~what:"memset" ~windows:[ (dst, dst + n) ]
        ~anchor:(Some dst) None;
      ctx.model <- Model.memset ctx.model ~dst ~n byte
    end
  end

let exec_memcpy ctx ~src ~dst ~n =
  let reports = Interceptors.memmove ctx.san ~dst ~src ~n in
  if n <= 0 then begin
    if reports <> [] then fail "memcpy with n=%d produced a report" n
  end
  else begin
    let src_bad = not (Model.range_addressable ctx.model ~lo:src ~hi:(src + n))
    and dst_bad =
      not (Model.range_addressable ctx.model ~lo:dst ~hi:(dst + n))
    in
    (match (reports, src_bad, dst_bad) with
    | [], false, false -> ctx.model <- Model.memmove ctx.model ~src ~dst ~n
    | [ r ], true, false ->
      check_report ctx ~what:"memcpy src" ~windows:[ (src, src + n) ]
        ~anchor:(Some src) (Some r)
    | [ r ], false, true ->
      check_report ctx ~what:"memcpy dst" ~windows:[ (dst, dst + n) ]
        ~anchor:(Some dst) (Some r)
    | [ r1; r2 ], true, true ->
      check_report ctx ~what:"memcpy src" ~windows:[ (src, src + n) ]
        ~anchor:(Some src) (Some r1);
      check_report ctx ~what:"memcpy dst" ~windows:[ (dst, dst + n) ]
        ~anchor:(Some dst) (Some r2)
    | _ ->
      fail "memcpy reports (%d of them) disagree with the model (src %s, dst %s)"
        (List.length reports)
        (if src_bad then "bad" else "ok")
        (if dst_bad then "bad" else "ok"))
  end

let exec_realloc ctx ~slot ~ptr ~size =
  match Interceptors.realloc ctx.san ~ptr ~size with
  | exception Out_of_memory -> sync_pressure ctx
  | Ok fresh ->
    sync_pressure ctx;
    ctx.allocs <- ctx.allocs + 1;
    let keep =
      if ptr = 0 then 0
      else
        match Model.find_object ctx.model ptr with
        | Some o when o.Model.o_status = Model.Live && o.Model.o_base = ptr ->
          min size o.Model.o_size
        | _ ->
          fail "realloc succeeded but the model has no live object at %d" ptr
    in
    (match
       Model.alloc ctx.model ~kind:Memobj.Heap ~size
         (Model.placement_of_obj fresh)
     with
    | Ok m -> ctx.model <- m
    | Error e -> fail "realloc placement rejected by the spec: %s" e);
    if keep > 0 then
      ctx.model <-
        Model.blit_exact ctx.model ~src:ptr ~dst:fresh.Memobj.base ~len:keep;
    if ptr <> 0 then begin
      ctx.frees <- ctx.frees + 1;
      match Model.free ctx.model ~ptr with
      | Ok m -> ctx.model <- m
      | Error _ -> fail "model rejects the free inside a successful realloc"
    end;
    ctx.slots.(slot) <- Some { s_base = fresh.Memobj.base; s_size = size }
  | Error r -> (
    match Model.free ctx.model ~ptr with
    | Ok _ ->
      fail "realloc reported %s but the model frees %d cleanly"
        (Report.to_string r) ptr
    | Error e -> (
      ctx.reports <- ctx.reports + 1;
      match San.free_error_report ~name:ctx.san.San.name ~addr:ptr e with
      | Some x when x.Report.kind = r.Report.kind -> ()
      | _ ->
        fail "realloc error kind %s disagrees with the model's %s"
          (Report.kind_name r.Report.kind)
          (match San.free_error_report ~name:"spec" ~addr:ptr e with
          | Some x -> Report.kind_name x.Report.kind
          | None -> "no-report")))

(* ------------------------------------------------------------------ *)
(* The per-step audit                                                  *)
(* ------------------------------------------------------------------ *)

let model_state = function
  | Oracle.Unallocated -> Model.Unallocated
  | Addressable -> Addressable
  | Redzone -> Redzone
  | Freed -> Freed

let state_name = function
  | Model.Unallocated -> "unallocated"
  | Addressable -> "addressable"
  | Redzone -> "redzone"
  | Freed -> "freed"

let owner_name = function
  | None -> "none"
  | Some id -> Printf.sprintf "object %d" id

let audit ctx =
  let c = ctx.san.San.counters in
  if c.Counters.fast_checks + c.Counters.slow_checks <> c.Counters.region_checks
  then
    fail "counter partition broken: fast %d + slow %d <> region %d"
      c.Counters.fast_checks c.Counters.slow_checks c.Counters.region_checks;
  if c.Counters.word_checks > c.Counters.fast_checks then
    fail "word checks %d exceed the fast checks %d they subdivide"
      c.Counters.word_checks c.Counters.fast_checks;
  let heap = ctx.san.San.heap in
  let expect = Model.shadow_array ctx.model in
  let n = Array.length expect in
  if n <> Shadow_mem.segments ctx.shadow then
    fail "segment counts differ: model %d, real %d" n
      (Shadow_mem.segments ctx.shadow);
  for seg = 0 to n - 1 do
    let actual = Shadow_mem.peek ctx.shadow seg in
    if actual <> expect.(seg) then
      fail "shadow seg %d: model expects %s, real shadow holds %s" seg
        (State_code.describe expect.(seg))
        (State_code.describe actual)
  done;
  (* the word read path must agree lane-for-lane with the scalar peeks it
     batches — audited after every step so a word-assembly bug can't hide
     behind shadows that happen to be canonical *)
  let s = ref 0 in
  while !s < n do
    let w = Shadow_mem.peek_word ctx.shadow !s in
    for k = 0 to min 8 (n - !s) - 1 do
      let lane = Shadow_mem.word_byte w k
      and scalar = Shadow_mem.peek ctx.shadow (!s + k) in
      if lane <> scalar then
        fail "word lane %d of segment %d: word path %s, scalar peek %s" k !s
          (State_code.describe lane)
          (State_code.describe scalar)
    done;
    s := !s + 8
  done;
  let a = Heap.arena heap in
  for addr = 0 to Arena.size a - 1 do
    let actual = Arena.load a ~addr ~width:1 in
    let exp = Model.peek_byte ctx.model addr in
    if actual <> exp then
      fail "arena byte %d: model %d, real %d" addr exp actual
  done;
  (* the oracle: the ground truth the fuzz-mode restore rewinds through a
     dirty window, so a window that misses a byte shows up here *)
  let o = Heap.oracle heap in
  for addr = 0 to Arena.size a - 1 do
    let actual = model_state (Oracle.state o addr)
    and exp = Model.byte_state ctx.model addr in
    if actual <> exp then
      fail "oracle byte %d: model %s, real %s" addr (state_name exp)
        (state_name actual)
  done;
  for seg = 0 to n - 1 do
    let actual =
      Option.map
        (fun (x : Memobj.t) -> x.Memobj.id)
        (Heap.find_object heap (8 * seg))
    and exp =
      Option.map (fun x -> x.Model.o_id) (Model.find_object ctx.model (8 * seg))
    in
    if actual <> exp then
      fail "owner of seg %d: model %s, real %s" seg (owner_name exp)
        (owner_name actual)
  done;
  if Heap.quarantine_ids heap <> Model.quarantine_ids ctx.model then
    fail "quarantine order: real [%s], model [%s]"
      (String.concat ";" (List.map string_of_int (Heap.quarantine_ids heap)))
      (String.concat ";"
         (List.map string_of_int (Model.quarantine_ids ctx.model)));
  if Heap.quarantine_held heap <> Model.quarantine_held ctx.model then
    fail "quarantine held bytes: real %d, model %d" (Heap.quarantine_held heap)
      (Model.quarantine_held ctx.model);
  if Heap.quarantine_length heap <> Model.quarantine_length ctx.model then
    fail "quarantine length: real %d, model %d" (Heap.quarantine_length heap)
      (Model.quarantine_length ctx.model);
  if Heap.quarantine_bypasses heap <> Model.quarantine_bypasses ctx.model then
    fail "quarantine bypasses: real %d, model %d"
      (Heap.quarantine_bypasses heap)
      (Model.quarantine_bypasses ctx.model);
  if Heap.live_bytes heap <> Model.live_bytes ctx.model then
    fail "live bytes: real %d, model %d" (Heap.live_bytes heap)
      (Model.live_bytes ctx.model);
  if Heap.pressure_flushes heap <> ctx.flushes_seen then
    fail "pressure flushes drifted: real %d, harness saw %d"
      (Heap.pressure_flushes heap) ctx.flushes_seen

(* ------------------------------------------------------------------ *)
(* Operation generation                                                *)
(* ------------------------------------------------------------------ *)

let gen_size rng =
  Rng.weighted rng
    [
      (1, 0);
      (3, 1 + Rng.int rng 15);
      (3, 8 * (1 + Rng.int rng 16));
      (2, 17 + Rng.int rng 184);
    ]

let gen_kind rng =
  Rng.weighted rng [ (6, Memobj.Heap); (1, Memobj.Stack); (1, Memobj.Global) ]

let gen_width rng = Rng.pick rng [| 1; 2; 4; 8 |]

let arena_end ctx = 8 * Shadow_mem.segments ctx.shadow

(* Pick a slot; stale bases are kept on purpose (use-after-free and
   double-free fuel). *)
let pick_slot ctx rng = ctx.slots.(Rng.int rng n_slots)

(* One generated operation, returning a description for divergence
   messages. The distribution deliberately over-weights the edges the
   satellites call out: zero lengths, arena-end straddles, offset-0
   straddling loops, quarantine churn via small arenas/budgets. *)
let step ctx rng =
  match Rng.int rng 100 with
  | n when n < 22 ->
    let slot = Rng.int rng n_slots in
    let kind = gen_kind rng in
    let size = gen_size rng in
    let d = Printf.sprintf "alloc slot=%d size=%d" slot size in
    (d, fun () -> exec_alloc ctx ~slot ~kind ~size)
  | n when n < 34 -> (
    match pick_slot ctx rng with
    | None -> ("free null", fun () -> exec_free ctx ~ptr:0)
    | Some s ->
      let delta =
        Rng.weighted rng [ (6, 0); (1, -8); (1, 1); (1, 8); (1, s.s_size) ]
      in
      let d = Printf.sprintf "free base=%d delta=%d" s.s_base delta in
      (d, fun () -> exec_free ctx ~ptr:(s.s_base + delta)))
  | n when n < 40 -> (
    match pick_slot ctx rng with
    | None -> ("free null", fun () -> exec_free ctx ~ptr:0)
    | Some s ->
      let slot = Rng.int rng n_slots in
      let size = gen_size rng in
      let d = Printf.sprintf "realloc ptr=%d size=%d" s.s_base size in
      (d, fun () -> exec_realloc ctx ~slot ~ptr:s.s_base ~size))
  | n when n < 62 -> (
    match pick_slot ctx rng with
    | None ->
      let addr = Rng.int rng (arena_end ctx + 64) in
      let width = gen_width rng in
      ( Printf.sprintf "access abs addr=%d w=%d" addr width,
        fun () -> exec_access ctx ~base:0 ~addr ~width )
    | Some s ->
      let base =
        if Rng.int rng 4 = 0 then s.s_base + Rng.int_in rng 0 s.s_size
        else s.s_base
      in
      let off = Rng.int_in rng (-24) (s.s_size + 24) in
      let width = gen_width rng in
      let d = Printf.sprintf "access base=%d off=%d w=%d" base off width in
      (d, fun () -> exec_access ctx ~base ~addr:(base + off) ~width))
  | n when n < 74 -> (
    match pick_slot ctx rng with
    | None -> ("free null", fun () -> exec_free ctx ~ptr:0)
    | Some s ->
      (* anchor sometimes mid-object (8-aligned, as Quasi_bound requires of
         its base) so negative offsets straddle 0 into addressable bytes —
         the cache_ub tail path *)
      let mid = 8 * Rng.int rng ((s.s_size / 8) + 1) in
      let cbase = s.s_base + mid in
      let width = gen_width rng in
      let from_ = Rng.int_in rng (-16) 8 in
      let count = 1 + Rng.int rng 16 in
      let offs = List.init count (fun i -> from_ + (i * width)) in
      let d =
        Printf.sprintf "loop base=%d from=%d count=%d w=%d" cbase from_ count
          width
      in
      (d, fun () -> exec_loop ctx ~cbase ~offs ~width))
  | n when n < 84 -> (
    match Rng.int rng 3 with
    | 0 ->
      (* arena-end straddles, including r exactly at the end and len 0 *)
      let lo = arena_end ctx - Rng.int_in rng 0 40 in
      let len = Rng.int_in rng 0 48 in
      ( Printf.sprintf "region abs lo=%d len=%d" lo len,
        fun () -> exec_region ctx ~lo ~len )
    | _ -> (
      match pick_slot ctx rng with
      | None -> ("free null", fun () -> exec_free ctx ~ptr:0)
      | Some s ->
        let off = Rng.int_in rng (-24) (s.s_size + 24) in
        let len = Rng.int_in rng 0 64 in
        ( Printf.sprintf "region base=%d off=%d len=%d" s.s_base off len,
          fun () -> exec_region ctx ~lo:(s.s_base + off) ~len )))
  | n when n < 92 -> (
    match pick_slot ctx rng with
    | None -> ("free null", fun () -> exec_free ctx ~ptr:0)
    | Some s ->
      let dst = s.s_base + Rng.int_in rng (-16) (s.s_size + 16) in
      let len = Rng.int_in rng 0 64 in
      let byte = Rng.int rng 256 in
      ( Printf.sprintf "memset dst=%d n=%d" dst len,
        fun () -> exec_memset ctx ~dst ~n:len ~byte ))
  | _ -> (
    match (pick_slot ctx rng, pick_slot ctx rng) with
    | Some a, Some b ->
      let src = a.s_base + Rng.int_in rng (-16) (a.s_size + 16) in
      let dst = b.s_base + Rng.int_in rng (-16) (b.s_size + 16) in
      let n = Rng.int_in rng 0 64 in
      ( Printf.sprintf "memcpy src=%d dst=%d n=%d" src dst n,
        fun () -> exec_memcpy ctx ~src ~dst ~n )
    | _ -> ("free null", fun () -> exec_free ctx ~ptr:0))

(* ------------------------------------------------------------------ *)
(* Mutations (the teeth check)                                         *)
(* ------------------------------------------------------------------ *)

(* Corrupt the real world only; the model stays truthful, so the next
   audit MUST diverge. Returns false when the fault could not be planted
   (treated as a surviving mutant by the caller — a too-weak schedule is a
   harness bug worth failing on). *)
let apply_mutation ctx = function
  | M_bit_flip mask ->
    let mask = if mask land 0xff = 0 then 1 else mask land 0xff in
    let seg =
      (* prefer an owned segment; fall back to the unallocated expanse *)
      let codes = Model.shadow_array ctx.model in
      let rec first i =
        if i >= Array.length codes then 0
        else if codes.(i) <> State_code.unallocated then i
        else first (i + 1)
      in
      first 0
    in
    Shadow_mem.poke ctx.shadow seg (Shadow_mem.peek ctx.shadow seg lxor mask);
    true
  | M_stale_free ->
    let codes = Model.shadow_array ctx.model in
    let rec first i =
      if i >= Array.length codes then None
      else if codes.(i) <> State_code.freed then Some i
      else first (i + 1)
    in
    (match first 0 with
    | None -> false
    | Some seg ->
      Shadow_mem.poke ctx.shadow seg State_code.freed;
      true)
  | M_overclaim ->
    let codes = Model.shadow_array ctx.model in
    let rec first i =
      if i >= Array.length codes then None
      else if codes.(i) <> State_code.good then Some i
      else first (i + 1)
    in
    (match first 0 with
    | None -> false
    | Some seg ->
      Shadow_mem.poke ctx.shadow seg State_code.good;
      true)
  | M_misfold d -> (
    (* arm the poison-kernel fault plan and force a foldable allocation
       through the REAL runtime while the model poisons truthfully; an
       Out_of_memory here means nothing was poisoned, i.e. the fault was
       never planted (reported as such, NOT as a kill) *)
    match
      Folding.with_fault
        (Some (Folding.Overstate_last d))
        (fun () -> ctx.san.San.malloc ~kind:Memobj.Heap 24)
    with
    | exception Out_of_memory ->
      sync_pressure ctx;
      false
    | obj ->
      sync_pressure ctx;
      (match
         Model.alloc ctx.model ~kind:Memobj.Heap ~size:24
           (Model.placement_of_obj obj)
       with
      | Ok m -> ctx.model <- m
      | Error _ -> () (* leaves the model behind — the audit will object *));
      true)

(* ------------------------------------------------------------------ *)
(* Drivers                                                             *)
(* ------------------------------------------------------------------ *)

let make_ctx config =
  let san, shadow = Gs_runtime.create_exposed config in
  {
    san;
    shadow;
    model = Model.create config;
    slots = Array.make n_slots None;
    flushes_seen = 0;
    reports = 0;
    allocs = 0;
    frees = 0;
  }

let run ?(config = default_config) ~seed ~steps () =
  let rng = Rng.create seed in
  let ctx = make_ctx config in
  let result = ref None in
  (try
     audit ctx;
     for i = 0 to steps - 1 do
       if !result = None then begin
         let d, go = step ctx rng in
         try
           go ();
           audit ctx
         with Mismatch m ->
           result := Some { d_step = i; d_op = d; d_detail = m }
       end
     done
   with Mismatch m ->
     result := Some { d_step = -1; d_op = "initial state"; d_detail = m });
  match !result with
  | Some d -> Diverged d
  | None ->
    Equivalent
      {
        steps;
        reports = ctx.reports;
        allocs = ctx.allocs;
        frees = ctx.frees;
      }

(* The fuzz-mode restore audit. Three audited phases over one operation
   stream: [steps] ops, snapshot (real world via [San.snapshot], harness
   state saved alongside — the model is immutable, so saving it is keeping
   the reference), [steps] more ops of drift (frees, reallocs, quarantine
   churn), then restore and reinstate the saved harness state. The audit
   immediately after the restore is the ISSUE's byte-equality obligation:
   the model at the snapshot point IS what a from-scratch rebuild replaying
   phase one reaches (it was audited equal step by step), so a passing
   audit proves the restored shadow plane, arena bytes, quarantine FIFO
   and counters are byte-equal to that rebuild. The third phase proves the
   restored world also behaves like a fresh one going forward. *)
let check_restore ?(config = default_config) ~seed ~steps () =
  let rng = Rng.create seed in
  let ctx = make_ctx config in
  let result = ref None in
  let phase name n =
    for i = 0 to n - 1 do
      if !result = None then begin
        let d, go = step ctx rng in
        try
          go ();
          audit ctx
        with Mismatch m ->
          result := Some { d_step = i; d_op = name ^ ": " ^ d; d_detail = m }
      end
    done
  in
  (try audit ctx
   with Mismatch m ->
     result := Some { d_step = -1; d_op = "initial state"; d_detail = m });
  phase "pre-snapshot" steps;
  if !result = None then begin
    ctx.san.San.snapshot ();
    let saved_model = ctx.model
    and saved_slots = Array.copy ctx.slots
    and saved_flushes = ctx.flushes_seen
    and saved_reports = ctx.reports
    and saved_allocs = ctx.allocs
    and saved_frees = ctx.frees in
    phase "post-snapshot drift" steps;
    if !result = None then begin
      ctx.san.San.restore ();
      ctx.model <- saved_model;
      Array.blit saved_slots 0 ctx.slots 0 n_slots;
      ctx.flushes_seen <- saved_flushes;
      ctx.reports <- saved_reports;
      ctx.allocs <- saved_allocs;
      ctx.frees <- saved_frees;
      (try audit ctx
       with Mismatch m ->
         result :=
           Some { d_step = -1; d_op = "post-restore audit"; d_detail = m });
      phase "post-restore" steps
    end
  end;
  match !result with
  | Some d -> Diverged d
  | None ->
    Equivalent
      {
        steps = 3 * steps;
        reports = ctx.reports;
        allocs = ctx.allocs;
        frees = ctx.frees;
      }

(* Run clean for [steps] operations, plant the mutation, and demand the
   very next audit diverges. Returns [(killed, detail)]. *)
let check_mutation ?(config = default_config) ~seed ~steps m =
  let rng = Rng.create seed in
  let ctx = make_ctx config in
  let pre_divergence = ref None in
  (try
     for i = 0 to steps - 1 do
       if !pre_divergence = None then begin
         let d, go = step ctx rng in
         try
           go ();
           audit ctx
         with Mismatch msg ->
           pre_divergence := Some { d_step = i; d_op = d; d_detail = msg }
       end
     done
   with Mismatch msg ->
     pre_divergence :=
       Some { d_step = -1; d_op = "initial state"; d_detail = msg });
  match !pre_divergence with
  | Some d ->
    (false, "diverged before injection: " ^ divergence_to_string d)
  | None -> (
    match apply_mutation ctx m with
    | false -> (false, "fault could not be planted")
    | true -> (
      match audit ctx with
      | () -> (false, "mutant survived the audit")
      | exception Mismatch msg -> (true, msg)))
