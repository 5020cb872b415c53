module Bitops = Giantsan_util.Bitops
module Shadow_mem = Giantsan_shadow.Shadow_mem
module Memobj = Giantsan_memsim.Memobj

let degree_at ~good_segments =
  assert (good_segments >= 1);
  Int.min (Bitops.log2_floor good_segments) State_code.max_degree

(* Scheduled fault plan for the poison kernels. Domain-local so parallel
   chaos cells can each arm their own fault without racing: a worker domain
   arms a fault for one task and disarms it before the next, and no other
   domain ever observes the flip. *)
type fault =
  | Overstate_last of int
      (* the final segment of every good run claims this folding degree
         instead of 0, vouching for [2^d - 1] segments past the object's
         end: a silent detection-window shrink, never a false positive *)

let fault_key : fault option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current_fault () = !(Domain.DLS.get fault_key)

let with_fault f body =
  let cell = Domain.DLS.get fault_key in
  let saved = !cell in
  cell := f;
  Fun.protect ~finally:(fun () -> cell := saved) body

(* The degree sequence of a run of [G] good segments is a pure function of
   [G]: position j carries [degree_at (G - j)]. Moreover the sequence for
   [G] is a suffix of the sequence for any [N >= G] — both end in
   ..., degree_at 2, degree_at 1. So one memoized byte template (rebuilt
   only when a run outgrows it, to the next power of two) serves every run:
   poisoning becomes a single [Bytes.blit] of its last [G] bytes instead of
   [G] counted stores (the reference per-segment loop is
   [Giantsan_spec.Ref_kernel.poison_good_run]).

   The memo is domain-local: a shared [Bytes.t ref] would let one domain
   observe another's half-built template (grow-then-fill is not atomic), so
   each domain memoizes its own. Worst case each worker rebuilds the
   template once per power-of-two growth — noise next to the sweeps that
   amortize it. *)
let template_key = Domain.DLS.new_key (fun () -> ref Bytes.empty)

let template_for count =
  let template = Domain.DLS.get template_key in
  if Bytes.length !template < count then begin
    let n = Bitops.pow2 (Bitops.log2_ceil count) in
    let t = Bytes.create n in
    let d = ref (degree_at ~good_segments:n) in
    for j = 0 to n - 1 do
      let remaining = n - j in
      while remaining < 1 lsl !d do
        decr d
      done;
      Bytes.unsafe_set t j (Char.unsafe_chr (State_code.folded !d))
    done;
    template := t
  end;
  !template

let poison_good_run m ~first_seg ~count =
  if count > 0 then begin
    let tmpl = template_for count in
    let pat_off = Bytes.length tmpl - count in
    match current_fault () with
    | Some (Overstate_last od) ->
      (* same shadow and same store count as the reference kernel: the run
         minus its last segment is template-blitted, then the overstated
         final degree is one counted store *)
      Shadow_mem.blit_pattern m ~lo:first_seg ~pattern:tmpl ~pat_off
        ~len:(count - 1);
      Shadow_mem.set m (first_seg + count - 1) (State_code.folded od)
    | None ->
      Shadow_mem.blit_pattern m ~lo:first_seg ~pattern:tmpl ~pat_off ~len:count
  end

let poison_alloc m (obj : Memobj.t) =
  let rz = State_code.redzone_code obj.kind in
  let base_seg = obj.base / 8 in
  let full = obj.size / 8 in
  let rem = obj.size mod 8 in
  Shadow_mem.fill_range m ~lo:(obj.block_base / 8) ~hi:base_seg rz;
  poison_good_run m ~first_seg:base_seg ~count:full;
  let after =
    if rem > 0 then begin
      Shadow_mem.set m (base_seg + full) (State_code.partial rem);
      base_seg + full + 1
    end
    else base_seg + full
  in
  Shadow_mem.fill_range m ~lo:after ~hi:(Memobj.block_end obj / 8) rz

(* The segments the object's bytes touch; bounds as two lets, not a
   tuple, so freeing allocates nothing. *)
let poison_free m (obj : Memobj.t) =
  let lo = obj.base / 8 in
  let hi = if obj.size = 0 then lo else ((obj.base + obj.size - 1) / 8) + 1 in
  Shadow_mem.fill_range m ~lo ~hi State_code.freed

let poison_evict m (obj : Memobj.t) =
  Shadow_mem.fill_range m ~lo:(obj.block_base / 8)
    ~hi:(Memobj.block_end obj / 8) State_code.unallocated

(* Top-level rather than local to [lower_bound], so the reverse-traversal
   cache-miss path builds no closure. *)
let rec try_jump m p d =
  if d < 0 then p
  else begin
    let cand = p - (1 lsl d) in
    if cand < 0 then try_jump m p (d - 1)
    else
      let v = Shadow_mem.load m cand in
      if State_code.is_folded v && State_code.degree v >= d then
        (* the fold covers [cand, cand + 2^d) = [cand, p): extend left *)
        try_jump m cand d
      else try_jump m p (d - 1)
  end

let lower_bound m ~addr =
  let start = addr / 8 in
  (* largest d such that a degree-d fold at [p - 2^d] would not cross the
     shadow's origin *)
  let max_d =
    Int.min State_code.max_degree
      (if start <= 1 then 0 else Giantsan_util.Bitops.log2_floor start)
  in
  8 * try_jump m start max_d

let upper_bound m ~addr =
  let arena_end = 8 * Shadow_mem.segments m in
  let rec skip seg =
    let v = Shadow_mem.load m seg in
    if State_code.is_folded v then begin
      let next = seg + (1 lsl State_code.degree v) in
      (* a fold near the tail may jump past the shadow end; nothing beyond
         the arena is addressable, so the quasi-bound clamps there instead
         of overshooting into non-existent segments *)
      if next >= Shadow_mem.segments m then arena_end
      else skip next
    end
    else (seg * 8) + State_code.addressable_in_segment v
  in
  let bound = skip (addr / 8) in
  Int.max addr bound
