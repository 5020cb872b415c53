type t = {
  bytes : Bytes.t;
  fill : int;
  mutable loads : int;
  mutable stores : int;
  (* Dirty-segment journal (fuzz-mode restore): while armed, every store
     kernel appends the clamped range it touched, so [restore] can blit the
     snapshot back over only the segments that changed since — the
     incremental-repoisoning trick that makes per-exec reset O(dirty)
     instead of O(arena). Newest entry first. *)
  mutable journal : (int * int) list;  (* (lo, len) *)
  mutable armed : bool;
  word : Bytes.t;
      (* the word register: the 8 segments the last [load_word] fetched *)
}

let create ~segments ~fill =
  assert (segments > 0 && fill >= 0 && fill < 256);
  {
    bytes = Bytes.make segments (Char.chr fill);
    fill;
    loads = 0;
    stores = 0;
    journal = [];
    armed = false;
    word = Bytes.make 8 (Char.chr fill);
  }

let of_heap heap ~fill =
  create ~segments:(Giantsan_memsim.Heap.segment_count heap) ~fill

let segments t = Bytes.length t.bytes

(* Counting discipline (same clamp-then-count rule as the store kernels
   below): only probes that touch real metadata are charged. The virtual
   space beyond the arena answers with [fill] for free — charging it would
   overcount exactly like the fill_range drift bug did on the store side. *)
let load t p =
  if p < 0 || p >= Bytes.length t.bytes then t.fill
  else begin
    t.loads <- t.loads + 1;
    Char.code (Bytes.get t.bytes p)
  end

let peek t p =
  if p < 0 || p >= Bytes.length t.bytes then t.fill
  else Char.code (Bytes.get t.bytes p)

(* Word-wide metadata fetch: segments [p, p+8) land in the word register,
   byte [k] of it being segment [p + k]. One counted load per word — the
   folding encoding exists precisely so a single 64-bit load can vouch for
   64 segments, and the cost model must see it as a single event. A word
   that only straddles the arena end still costs one load (the arena part
   is a real fetch); a word entirely outside costs nothing. The word stays
   in the register instead of being returned: an [int64] result would be
   boxed on every check, since it cannot be unboxed across modules. *)
let stage_word t dst p =
  if p >= 0 && p + 8 <= Bytes.length t.bytes then
    Bytes.set_int64_le dst 0 (Bytes.get_int64_le t.bytes p)
  else
    (* arena-end (or -start) straddle: per byte, fill outside *)
    for k = 0 to 7 do
      Bytes.unsafe_set dst k (Char.unsafe_chr (peek t (p + k)))
    done

let load_word t p =
  if p + 8 > 0 && p < Bytes.length t.bytes then t.loads <- t.loads + 1;
  stage_word t t.word p

let word_lane t k = Char.code (Bytes.get t.word k)

(* Uncounted word fetch: the audit/dump twin of [peek]. Selfcheck and
   shadow dumps walk the whole arena; charging those scans would swamp the
   workload's own counters. *)
let peek_word t p =
  let w = Bytes.create 8 in
  stage_word t w p;
  Bytes.get_int64_le w 0

let word_byte w k = Int64.to_int (Int64.logand (Int64.shift_right_logical w (8 * k)) 0xFFL)

(* Journal a clamped (in-arena) range. The newest-entry containment check
   absorbs the common poison/unpoison-the-same-block churn without growing
   the journal; overlapping entries are harmless (restore blits twice). *)
let note_dirty t lo len =
  if t.armed && len > 0 then
    match t.journal with
    | (l, n) :: _ when lo >= l && lo + len <= l + n -> ()
    | _ -> t.journal <- (lo, len) :: t.journal

let set t p v =
  assert (v >= 0 && v < 256);
  t.stores <- t.stores + 1;
  if p >= 0 && p < Bytes.length t.bytes then begin
    note_dirty t p 1;
    Bytes.set t.bytes p (Char.chr v)
  end

(* Uncounted store: the chaos engine's corruption primitive. Bypassing the
   stores counter is the point — an injected fault must not perturb the
   event-count-derived cost model, or the determinism and bench gates would
   see phantom work. It still lands in the journal: a corrupted segment is
   dirty, and restore must repair it. *)
let poke t p v =
  assert (v >= 0 && v < 256);
  if p >= 0 && p < Bytes.length t.bytes then begin
    note_dirty t p 1;
    Bytes.set t.bytes p (Char.chr v)
  end

(* The batched kernels below clamp once, count the clamped length once, and
   then run an unchecked fill/blit: the bounds checks are hoisted out of the
   per-byte loop, which is what makes poisoning O(memset) rather than
   O(stores-counter increments). Only bytes that actually land in the arena
   are counted — the virtual space beyond it absorbs writes silently, and
   counting them would overcharge the cost model (the fill_range drift bug). *)

let fill_range t ~lo ~hi v =
  assert (lo <= hi && v >= 0 && v < 256);
  let lo' = max 0 lo and hi' = min (Bytes.length t.bytes) hi in
  let len = hi' - lo' in
  if len > 0 then begin
    t.stores <- t.stores + len;
    note_dirty t lo' len;
    Bytes.unsafe_fill t.bytes lo' len (Char.chr v)
  end

let blit_pattern t ~lo ~pattern ~pat_off ~len =
  assert (len >= 0 && pat_off >= 0 && pat_off + len <= Bytes.length pattern);
  (* clamp [lo, lo + len) to the arena, sliding the pattern window along *)
  let cut_lo = if lo < 0 then -lo else 0 in
  let lo' = lo + cut_lo and pat_off' = pat_off + cut_lo in
  let len' = min (len - cut_lo) (Bytes.length t.bytes - lo') in
  if len' > 0 then begin
    t.stores <- t.stores + len';
    note_dirty t lo' len';
    Bytes.unsafe_blit pattern pat_off' t.bytes lo' len'
  end

let loads t = t.loads
let stores t = t.stores

let reset_counters t =
  t.loads <- 0;
  t.stores <- 0

(* {1 Snapshot / restore (the fuzz-mode profile)} *)

type snapshot = { s_bytes : Bytes.t; s_loads : int; s_stores : int }

let snapshot t =
  t.journal <- [];
  t.armed <- true;
  { s_bytes = Bytes.copy t.bytes; s_loads = t.loads; s_stores = t.stores }

let restore t s =
  assert (Bytes.length s.s_bytes = Bytes.length t.bytes);
  List.iter
    (fun (lo, len) -> Bytes.blit s.s_bytes lo t.bytes lo len)
    t.journal;
  t.journal <- [];
  t.loads <- s.s_loads;
  t.stores <- s.s_stores

let journal_entries t = List.length t.journal

let journal_segments t =
  List.fold_left (fun a (_, len) -> a + len) 0 t.journal

let chaos_drop_journal t ~pick =
  let n = List.length t.journal in
  if n = 0 then None
  else begin
    let k = ((pick mod n) + n) mod n in
    let victim = List.nth t.journal k in
    t.journal <- List.filteri (fun i _ -> i <> k) t.journal;
    Some victim
  end
