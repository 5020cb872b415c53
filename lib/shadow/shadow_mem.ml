module Dirty = Giantsan_memsim.Dirty

type snapshot = { s_bytes : Bytes.t; s_loads : int; s_stores : int }

type t = {
  bytes : Bytes.t;
  fill : int;
  mutable loads : int;
  mutable stores : int;
  dirty : snapshot Dirty.t;
      (* the segments stored since the armed snapshot: [restore] blits back
         only this window, as [Arena] does for its bytes *)
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
    dirty = Dirty.create ~size:segments;
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

(* Unchecked: [skip_zero] reads only inside a range it has bounds-checked. *)
external get_int64_unsafe : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* ASan's [mem_is_zero] over the shadow: the linear guardian's scan. The
   cost model still sees one [load] per segment, from [lo] up to and
   including the one returned, charged in one increment at the end. A
   range inside the arena is bounds-checked once, then read 8 segments per
   unchecked 64-bit read and finished byte by byte; one that straddles an
   arena end goes segment by segment, the outside reading as [fill] for
   free. *)
let skip_zero t ~lo ~hi =
  let b = t.bytes in
  let p = ref lo in
  if lo >= 0 && hi <= Bytes.length b then begin
    while !p + 8 <= hi && get_int64_unsafe b !p = 0L do
      p := !p + 8
    done;
    while !p < hi && Bytes.unsafe_get b !p = '\000' do
      incr p
    done;
    t.loads <- t.loads + (!p - lo) + if !p < hi then 1 else 0
  end
  else
    while
      !p < hi
      &&
      if !p >= 0 && !p < Bytes.length b then begin
        t.loads <- t.loads + 1;
        Bytes.unsafe_get b !p = '\000'
      end
      else t.fill = 0
    do
      incr p
    done;
  !p

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

let set t p v =
  assert (v >= 0 && v < 256);
  t.stores <- t.stores + 1;
  if p >= 0 && p < Bytes.length t.bytes then begin
    Dirty.widen t.dirty ~lo:p ~hi:(p + 1);
    Bytes.set t.bytes p (Char.chr v)
  end

(* Uncounted store: the chaos engine's corruption primitive. Bypassing the
   stores counter is the point — an injected fault must not perturb the
   event-count-derived cost model, or the determinism and bench gates would
   see phantom work. It still widens the dirty window: a corrupted segment
   is dirty, and restore must repair it. *)
let poke t p v =
  assert (v >= 0 && v < 256);
  if p >= 0 && p < Bytes.length t.bytes then begin
    Dirty.widen t.dirty ~lo:p ~hi:(p + 1);
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
  let lo' = Int.max 0 lo and hi' = Int.min (Bytes.length t.bytes) hi in
  let len = hi' - lo' in
  if len > 0 then begin
    t.stores <- t.stores + len;
    Dirty.widen t.dirty ~lo:lo' ~hi:hi';
    Bytes.unsafe_fill t.bytes lo' len (Char.chr v)
  end

let blit_pattern t ~lo ~pattern ~pat_off ~len =
  assert (len >= 0 && pat_off >= 0 && pat_off + len <= Bytes.length pattern);
  (* clamp [lo, lo + len) to the arena, sliding the pattern window along *)
  let cut_lo = if lo < 0 then -lo else 0 in
  let lo' = lo + cut_lo and pat_off' = pat_off + cut_lo in
  let len' = Int.min (len - cut_lo) (Bytes.length t.bytes - lo') in
  if len' > 0 then begin
    t.stores <- t.stores + len';
    Dirty.widen t.dirty ~lo:lo' ~hi:(lo' + len');
    Bytes.unsafe_blit pattern pat_off' t.bytes lo' len'
  end

let loads t = t.loads
let stores t = t.stores

let reset_counters t =
  t.loads <- 0;
  t.stores <- 0

(* {1 Snapshot / restore (the fuzz-mode profile)} *)

let snapshot t =
  let s =
    { s_bytes = Bytes.copy t.bytes; s_loads = t.loads; s_stores = t.stores }
  in
  Dirty.arm t.dirty s;
  s

let restore t s =
  assert (Bytes.length s.s_bytes = Bytes.length t.bytes);
  Dirty.rewind t.dirty s;
  let lo = Dirty.lo t.dirty and hi = Dirty.hi t.dirty in
  if lo < hi then Bytes.blit s.s_bytes lo t.bytes lo (hi - lo);
  Dirty.clear t.dirty;
  t.loads <- s.s_loads;
  t.stores <- s.s_stores

let dirty_segments t = Int.max 0 (Dirty.hi t.dirty - Dirty.lo t.dirty)

(* Narrow the window to [lo', hi') through [Dirty]'s own API: clear, then
   widen. A one-segment window is left cleared: widening by the empty
   [lo', lo') would pin an end that the next store widens from. *)
let chaos_trim_window t ~pick =
  let lo = Dirty.lo t.dirty and hi = Dirty.hi t.dirty in
  if hi <= lo then None
  else begin
    let seg, lo', hi' =
      if pick land 1 = 0 then (hi - 1, lo, hi - 1) else (lo, lo + 1, hi)
    in
    Dirty.clear t.dirty;
    if lo' < hi' then Dirty.widen t.dirty ~lo:lo' ~hi:hi';
    Some seg
  end
