type snapshot = { s_bytes : Bytes.t; s_loads : int; s_stores : int }

type t = {
  bytes : Bytes.t;
  fill : int;
  mutable loads : int;
  mutable stores : int;
  (* Dirty-segment journal (fuzz-mode restore): while armed, every store
     kernel appends the clamped range it touched, so [restore] can blit the
     snapshot back over only the segments that changed since — the
     incremental-repoisoning trick that makes per-exec reset O(dirty)
     instead of O(arena). Entry [i < jn] is [(jlo.(i), jlen.(i))], oldest
     first. The two arrays grow by doubling and are kept across restores,
     so journaling a store allocates nothing; they stay empty until the
     first [snapshot], since most shadows are never armed. The journal is
     relative to the armed snapshot; restoring any other one repairs the
     whole plane. *)
  mutable jlo : int array;
  mutable jlen : int array;
  mutable jn : int;
  mutable armed : snapshot option;
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
    jlo = [||];
    jlen = [||];
    jn = 0;
    armed = None;
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

(* Out of line: runs once per doubling. Also allocates the first arrays,
   which [snapshot] asks for by growing an empty journal. *)
let grow_journal t =
  let cap = Int.max 64 (2 * Array.length t.jlo) in
  let grow a =
    let a' = Array.make cap 0 in
    Array.blit a 0 a' 0 t.jn;
    a'
  in
  t.jlo <- grow t.jlo;
  t.jlen <- grow t.jlen

(* Journal a clamped (in-arena) range. The newest-entry containment check
   absorbs the common poison/unpoison-the-same-block churn without growing
   the journal; overlapping entries are harmless (restore blits twice). *)
let note_dirty t lo len =
  if t.armed != None && len > 0 then begin
    let n = t.jn in
    if
      not
        (n > 0
        && lo >= t.jlo.(n - 1)
        && lo + len <= t.jlo.(n - 1) + t.jlen.(n - 1))
    then begin
      if n = Array.length t.jlo then grow_journal t;
      t.jlo.(n) <- lo;
      t.jlen.(n) <- len;
      t.jn <- n + 1
    end
  end

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
  let lo' = Int.max 0 lo and hi' = Int.min (Bytes.length t.bytes) hi in
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
  let len' = Int.min (len - cut_lo) (Bytes.length t.bytes - lo') in
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

let snapshot t =
  let s =
    { s_bytes = Bytes.copy t.bytes; s_loads = t.loads; s_stores = t.stores }
  in
  if Array.length t.jlo = 0 then grow_journal t;
  t.jn <- 0;
  t.armed <- Some s;
  s

(* A snapshot other than the armed one (an older one, say) predates part
   of what the journal forgot at the last [snapshot]: journal the whole
   plane, and the ordinary blit below does the full repair. *)
let restore t s =
  assert (Bytes.length s.s_bytes = Bytes.length t.bytes);
  (match t.armed with
  | Some a when a == s -> ()
  | _ ->
    if Array.length t.jlo = 0 then grow_journal t;
    t.jlo.(0) <- 0;
    t.jlen.(0) <- Bytes.length t.bytes;
    t.jn <- 1;
    t.armed <- Some s);
  for i = 0 to t.jn - 1 do
    let lo = t.jlo.(i) in
    Bytes.blit s.s_bytes lo t.bytes lo t.jlen.(i)
  done;
  t.jn <- 0;
  t.loads <- s.s_loads;
  t.stores <- s.s_stores

let journal_segments t =
  let sum = ref 0 in
  for i = 0 to t.jn - 1 do
    sum := !sum + t.jlen.(i)
  done;
  !sum

(* The [pick]-th newest entry sits at index [jn - 1 - k]; the newer ones
   above it shift down one slot, keeping the order. *)
let chaos_drop_journal t ~pick =
  let n = t.jn in
  if n = 0 then None
  else begin
    let k = ((pick mod n) + n) mod n in
    let i = n - 1 - k in
    let victim = (t.jlo.(i), t.jlen.(i)) in
    Array.blit t.jlo (i + 1) t.jlo i k;
    Array.blit t.jlen (i + 1) t.jlen i k;
    t.jn <- n - 1;
    Some victim
  end
