module Shadow_mem = Giantsan_shadow.Shadow_mem

type outcome = Safe_fast | Safe_slow | Safe_word | Bad of int

let is_safe = function Safe_fast | Safe_slow | Safe_word -> true | Bad _ -> false

let count (c : Giantsan_sanitizer.Counters.t) outcome =
  c.region_checks <- c.region_checks + 1;
  match outcome with
  | Safe_fast -> c.fast_checks <- c.fast_checks + 1
  | Safe_word ->
    c.fast_checks <- c.fast_checks + 1;
    c.word_checks <- c.word_checks + 1
  | Safe_slow | Bad _ -> c.slow_checks <- c.slow_checks + 1

(* A literal transcription of Algorithm 1. [l] plays L, [r] plays R.
   Soundness rests on two invariants of the poisoning pass:
   - a folded code is a truthful claim that 2^i whole segments are good;
   - within one object, state codes never decrease along the object
     (monotone degrees), so the suffix test can use [<>] instead of [>].

   Kept as a selectable scalar path (and as the word kernel's ground truth
   in the equivalence qchecks): the word path below must agree with it
   byte-for-byte on ANY shadow contents, canonical or corrupted. *)
let check_scalar m ~l ~r =
  assert (l land 7 = 0);
  if r <= l then Safe_fast
  else begin
    let v = Shadow_mem.load m (l / 8) in
    let u = State_code.covered_bytes v in
    if u >= r - l then Safe_fast
    else begin
      let bad = ref None in
      if r - l >= 8 then begin
        (* prefix: the folded segment at l must cover at least half *)
        if 2 * u < r - l then bad := Some (l + u)
        else if Shadow_mem.load m ((r - u) / 8) <> v then
          (* suffix: a second folded segment of the same degree must cover
             the tail. The blamed address is the end of the suffix segment,
             clamped into the checked region: for small [u] the segment's
             last byte can sit at or past [r], and an error report outside
             [l, r) would point the user at bytes the access never touched. *)
          bad := Some (Int.min (r - 1) (((r - u) / 8 * 8) + 7))
      end;
      (if !bad = None then
         (* the final, possibly partial segment *)
         let last = Shadow_mem.load m ((r - 1) / 8) in
         if last > 72 - (r land 7) then
           bad := Some (((r - 1) / 8 * 8) + State_code.addressable_in_segment last));
      match !bad with None -> Safe_slow | Some addr -> Bad addr
    end
  end

(* Word fast path, for regions spanning at most 8 segments (r - l <= 64,
   the overwhelmingly common case: every instruction-level access and most
   operation-level checks). One 64-bit shadow load fetches all the segments
   Algorithm 1 could ever probe for such a region; the three probe lanes
   (fold at l, same-degree suffix fold, final partial segment) are then
   served from the broadcast word instead of issuing separate loads.

   Exactness, not just soundness: each probe reads the identical shadow
   byte the scalar kernel would load, so verdict AND blamed address match
   [check_scalar] on arbitrary shadow contents — including corrupted or
   misfolded states, which is what lets the refinement harness audit the
   two paths in lockstep and a planted fault diverge identically in both.
   (A tempting cheaper settle — "all 8 lanes folded => safe" — is NOT
   equivalent: three degree-0 folds over a 24-byte region fail the scalar
   prefix test, so the word path would mask exactly the corruptions the
   mutation tests plant.) *)
let check_word m ~l ~r =
  (* precondition: l aligned, l < r, r - l <= 64 *)
  let l_seg = l / 8 in
  Shadow_mem.load_word m l_seg;
  let v = Shadow_mem.word_lane m 0 in
  let u = State_code.covered_bytes v in
  if u >= r - l then Safe_word
  else begin
    let bad = ref None in
    if r - l >= 8 then begin
      if 2 * u < r - l then bad := Some (l + u)
        (* the suffix lane index is in [0, 7]: this branch needs [v] folded
           (else u = 0 fails the prefix test), so u >= 8 and
           l < r - u <= r - 8 *)
      else if Shadow_mem.word_lane m ((r - u) / 8 - l_seg) <> v then
        bad := Some (Int.min (r - 1) (((r - u) / 8 * 8) + 7))
    end;
    (if !bad = None then
       let last = Shadow_mem.word_lane m ((r - 1) / 8 - l_seg) in
       if last > 72 - (r land 7) then
         bad := Some (((r - 1) / 8 * 8) + State_code.addressable_in_segment last));
    match !bad with None -> Safe_word | Some addr -> Bad addr
  end

let check m ~l ~r =
  assert (l land 7 = 0);
  if r <= l then Safe_fast
  else if r - l <= 64 then check_word m ~l ~r
  else check_scalar m ~l ~r

(* An empty region is vacuously safe BEFORE aligning: aligning first would
   turn [l, l) into a real check of the bytes below [l] — bytes the
   operation never touches — and report a zero-length memset/region check
   that happens to start over a redzone. Found by the refinement harness
   (model: an empty window is addressable). *)
let check_unaligned m ~l ~r =
  if r <= l then Safe_fast else check m ~l:(l land lnot 7) ~r
