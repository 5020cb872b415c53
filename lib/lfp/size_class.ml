(* Classes: for each power of two p >= 16, the sizes p, p+p/4, p+p/2,
   p+3p/4. This mirrors LFP's "more variety of allocation sizes" refinement
   over BBC's plain powers of two. *)

(* A size in (p, 2p], p = 2^k >= 16, rounds up to a multiple of the
   quarter step p/4 = 2^(k-2): p is one, so that is p plus whole quarter
   steps. A shift and a mask, with no loop and no division. *)
let round_up size =
  if size <= 16 then 16
  else begin
    let q = 1 lsl (Giantsan_util.Bitops.log2_floor (size - 1) - 2) in
    (size + q - 1) land lnot (q - 1)
  end

let slack size = round_up size - size

let is_class_size n =
  n >= 16 && round_up n = n
