let log2_floor n =
  assert (n >= 1);
  (* The position of the highest set bit, by binary search: six halving
     steps cover an OCaml int's 63 bits, with no loop. *)
  let n = ref n and r = ref 0 in
  if !n lsr 32 <> 0 then begin n := !n lsr 32; r := 32 end;
  if !n lsr 16 <> 0 then begin n := !n lsr 16; r := !r + 16 end;
  if !n lsr 8 <> 0 then begin n := !n lsr 8; r := !r + 8 end;
  if !n lsr 4 <> 0 then begin n := !n lsr 4; r := !r + 4 end;
  if !n lsr 2 <> 0 then begin n := !n lsr 2; r := !r + 2 end;
  if !n lsr 1 <> 0 then r := !r + 1;
  !r

let pow2 x =
  assert (x >= 0 && x <= 61);
  1 lsl x

let log2_ceil n =
  assert (n >= 1);
  let f = log2_floor n in
  if 1 lsl f = n then f else f + 1

let is_pow2 n =
  assert (n >= 1);
  n land (n - 1) = 0

let align_down a n =
  assert (is_pow2 a);
  n land lnot (a - 1)

let align_up a n =
  assert (is_pow2 a);
  (n + a - 1) land lnot (a - 1)

let is_aligned a n =
  assert (is_pow2 a);
  n land (a - 1) = 0

let cdiv n d =
  assert (n >= 0 && d > 0);
  (n + d - 1) / d
