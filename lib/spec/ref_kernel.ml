module Shadow_mem = Giantsan_shadow.Shadow_mem
module State_code = Giantsan_core.State_code
module Folding = Giantsan_core.Folding
module Linear_encoding = Giantsan_core.Linear_encoding
module Memobj = Giantsan_memsim.Memobj

(* Every kernel here is the obviously-correct scalar version of an
   optimized one: one byte at a time, no hoisted bounds, no templates, no
   fold hopping. Performance is irrelevant — these run only inside the
   refinement properties that license the fast kernels. *)

type t = { cells : int array; fill : int; mutable stores : int }

let create ~segments ~fill =
  { cells = Array.make segments fill; fill; stores = 0 }

let of_shadow m =
  let n = Shadow_mem.segments m in
  {
    cells = Array.init n (Shadow_mem.peek m);
    (* an out-of-range peek answers the fill byte *)
    fill = Shadow_mem.peek m (-1);
    stores = 0;
  }

let segments t = Array.length t.cells
let stores t = t.stores

let peek t p = if p >= 0 && p < segments t then t.cells.(p) else t.fill

(* Counting discipline of Shadow_mem.set: the store is counted whether or
   not it lands in the arena. *)
let set t p v =
  t.stores <- t.stores + 1;
  if p >= 0 && p < segments t then t.cells.(p) <- v

(* Counting discipline of the batched kernels: only bytes that actually
   land in the arena are counted. *)
let write_clamped t p v =
  if p >= 0 && p < segments t then begin
    t.stores <- t.stores + 1;
    t.cells.(p) <- v
  end

let fill_range t ~lo ~hi v =
  (* same precondition as the real kernel: callers never invert the range *)
  assert (lo <= hi);
  for p = lo to hi - 1 do
    write_clamped t p v
  done

let blit_pattern t ~lo ~pattern ~pat_off ~len =
  for j = 0 to len - 1 do
    write_clamped t (lo + j) (Char.code (Bytes.get pattern (pat_off + j)))
  done

(* Position j of a run of [count] good segments carries degree
   [degree_at (count - j)] — the definition, evaluated directly, with the
   fault plan overriding the final segment exactly as the scalar kernel
   documents. One counted store per segment (the scalar discipline). *)
let poison_good_run ?fault t ~first_seg ~count =
  for j = 0 to count - 1 do
    let remaining = count - j in
    let degree =
      match fault with
      | Some (Folding.Overstate_last od) when remaining = 1 -> od
      | _ -> Folding.degree_at ~good_segments:remaining
    in
    set t (first_seg + j) (State_code.folded degree)
  done

let object_segments (obj : Memobj.t) =
  let base_seg = obj.Memobj.base / 8 in
  let hi =
    if obj.Memobj.size = 0 then base_seg
    else ((obj.Memobj.base + obj.Memobj.size - 1) / 8) + 1
  in
  (base_seg, hi)

let poison_alloc ?fault t (obj : Memobj.t) =
  let rz = State_code.redzone_code obj.Memobj.kind in
  let base_seg = obj.Memobj.base / 8 in
  let full = obj.Memobj.size / 8 in
  let rem = obj.Memobj.size mod 8 in
  fill_range t ~lo:(obj.Memobj.block_base / 8) ~hi:base_seg rz;
  poison_good_run ?fault t ~first_seg:base_seg ~count:full;
  let after =
    if rem > 0 then begin
      set t (base_seg + full) (State_code.partial rem);
      base_seg + full + 1
    end
    else base_seg + full
  in
  fill_range t ~lo:after ~hi:(Memobj.block_end obj / 8) rz

let poison_free t obj =
  let lo, hi = object_segments obj in
  fill_range t ~lo ~hi State_code.freed

let poison_evict t (obj : Memobj.t) =
  fill_range t ~lo:(obj.Memobj.block_base / 8)
    ~hi:(Memobj.block_end obj / 8) State_code.unallocated

(* ------------------------------------------------------------------ *)
(* Byte-level addressability, and the scalar checks built on it        *)
(* ------------------------------------------------------------------ *)

(* Floor division: OCaml's (/) truncates toward zero, which would map the
   bytes just below zero onto segment 0. *)
let seg_of a = if a >= 0 then a / 8 else (a - 7) / 8

(* A byte is addressable when it sits inside its own segment's addressable
   prefix. Only the byte's own segment is consulted — a fold's claim about
   its successors is exactly what the optimized kernels are being audited
   on, so the reference must not trust it. Works unchanged for the linear
   run-length encoding (run codes <= 64 mean "whole segment good"). *)
let addressable_byte t a =
  let s = seg_of a in
  a - (8 * s) < State_code.addressable_in_segment (peek t s)

(* Reference for Region_check.check: scan [l, r) one byte at a time.
   [`Bad] carries the first non-addressable byte; the optimized checker may
   blame a different byte of the same bad region (see Refine's report
   containment property), but safe/bad must agree exactly. *)
let region_check t ~l ~r =
  assert (l land 7 = 0);
  let rec go a =
    if a >= r then `Safe else if addressable_byte t a then go (a + 1) else `Bad a
  in
  go l

(* Empty means empty: vacuously safe before any aligning, exactly the
   semantics the zero-length fix pinned into Region_check.check_unaligned. *)
let region_check_unaligned t ~l ~r =
  if r <= l then `Safe else region_check t ~l:(l land lnot 7) ~r

let check_unaligned_scalar m ~l ~r =
  if r <= l then Giantsan_core.Region_check.Safe_fast
  else Giantsan_core.Region_check.check_scalar m ~l:(l land lnot 7) ~r

(* Reference for Shadow_mem.load_word / peek_word: the word assembled from
   eight single-byte peeks, little-endian — lane k of the result is the
   code of segment p + k, with out-of-range lanes answering the fill byte.
   The optimized kernel reads Bytes.get_int64_le when the word sits inside
   the arena and falls back to per-byte assembly on straddles; either way
   it must equal this. *)
let word_at t p =
  let w = ref 0L in
  for k = 7 downto 0 do
    w := Int64.logor (Int64.shift_left !w 8) (Int64.of_int (peek t (p + k)))
  done;
  !w

(* Counting discipline of Shadow_mem.load_word: one counted load exactly
   when some lane of [p, p+8) lands in the arena — the word-level mirror of
   the clamp-then-count rule the byte loads follow. *)
let word_load_counted t p = p + 8 > 0 && p < segments t

(* Reference for Folding.upper_bound: from the start of [addr]'s segment,
   walk forward one byte at a time while addressable, stopping at the arena
   end; never answer below [addr] itself. *)
let upper_bound t ~addr =
  let arena_end = 8 * segments t in
  let rec scan a =
    if a >= arena_end then arena_end
    else if addressable_byte t a then scan (a + 1)
    else a
  in
  max addr (scan (8 * (addr / 8)))

(* Soundness envelope for Folding.lower_bound: the result must be 8-aligned,
   at or below [addr]'s segment start, and everything between it and the
   segment start must be addressable. (The fast kernel's power-of-two
   back-jumps may stop early; they may never claim a byte that is not
   good.) *)
let lower_bound_sound t ~addr l =
  let hi = 8 * (addr / 8) in
  l land 7 = 0 && l >= 0 && l <= hi
  &&
  let rec go a = a >= hi || (addressable_byte t a && go (a + 1)) in
  go l

(* Reference for Linear_encoding.poison_good_run: position j of a run of
   [count] good segments carries [min max_run (count - j)]. *)
let linear_poison_good_run t ~first_seg ~count =
  for j = 0 to count - 1 do
    set t (first_seg + j) (min Linear_encoding.max_run (count - j))
  done
