(* 32 linear sub-buckets per octave: relative error <= 1/32. Values below
   2*32 = 64 get unit buckets; octave k >= 6 has 32 buckets of width
   2^(k-5). The top octave of a 63-bit int lands at index 57*32 + 63. *)
let sub_bits = 5
let sub_count = 1 lsl sub_bits (* 32 *)
let unit_limit = 2 * sub_count (* 64: exact below this *)
let n_buckets = 59 * sub_count

let bits v =
  let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
  go 0 v

let bucket_of_value v =
  if v < unit_limit then max 0 v
  else begin
    let shift = bits v - sub_bits - 1 in
    (shift * sub_count) + (v lsr shift)
  end

let bucket_bounds i =
  if i < unit_limit then (i, i + 1)
  else begin
    let shift = (i / sub_count) - 1 in
    let lo = (i - (shift * sub_count)) lsl shift in
    (lo, lo + (1 lsl shift))
  end

type t = {
  l_name : string;
  l_buckets : int array;
  mutable l_count : int;
  mutable l_sum : int;
  mutable l_min : int;
  mutable l_max : int;
}

let create name =
  {
    l_name = name;
    l_buckets = Array.make n_buckets 0;
    l_count = 0;
    l_sum = 0;
    l_min = 0;
    l_max = 0;
  }

let name t = t.l_name

let observe t v =
  let v = max 0 v in
  let b = bucket_of_value v in
  t.l_buckets.(b) <- t.l_buckets.(b) + 1;
  if t.l_count = 0 || v < t.l_min then t.l_min <- v;
  if v > t.l_max then t.l_max <- v;
  t.l_count <- t.l_count + 1;
  t.l_sum <- t.l_sum + v

let count t = t.l_count
let sum t = t.l_sum
let max_value t = t.l_max
let mean t = if t.l_count = 0 then 0.0 else float_of_int t.l_sum /. float_of_int t.l_count

let reset t =
  Array.fill t.l_buckets 0 n_buckets 0;
  t.l_count <- 0;
  t.l_sum <- 0;
  t.l_min <- 0;
  t.l_max <- 0

let merge_as name a b =
  let r = create name in
  Array.iteri (fun i v -> r.l_buckets.(i) <- v + b.l_buckets.(i)) a.l_buckets;
  r.l_count <- a.l_count + b.l_count;
  r.l_sum <- a.l_sum + b.l_sum;
  r.l_max <- max a.l_max b.l_max;
  r.l_min <-
    (if a.l_count = 0 then b.l_min
     else if b.l_count = 0 then a.l_min
     else min a.l_min b.l_min);
  r

let merge a b =
  if a.l_name <> b.l_name then
    invalid_arg (Printf.sprintf "Latency.merge: %s vs %s" a.l_name b.l_name);
  merge_as a.l_name a b

let equal a b =
  a.l_name = b.l_name && a.l_count = b.l_count && a.l_sum = b.l_sum
  && a.l_min = b.l_min && a.l_max = b.l_max && a.l_buckets = b.l_buckets

let quantile t q =
  if t.l_count = 0 then 0.0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = q *. float_of_int (t.l_count - 1) in
    (* find the bucket holding order statistic floor(rank) *)
    let rec find i cum =
      let c = t.l_buckets.(i) in
      if float_of_int (cum + c) > rank then (i, cum, c)
      else find (i + 1) (cum + c)
    in
    let i, cum, c = find 0 0 in
    let lo, hi = bucket_bounds i in
    let pos = (rank -. float_of_int cum) /. float_of_int c in
    let v = float_of_int lo +. (pos *. float_of_int (hi - lo)) in
    Float.max (float_of_int t.l_min) (Float.min (float_of_int t.l_max) v)
  end

let p50 t = quantile t 0.5
let p99 t = quantile t 0.99
let p999 t = quantile t 0.999

let to_json t =
  Json.Obj
    [
      ("name", Json.Str t.l_name);
      ("count", Json.Int t.l_count);
      ("sum", Json.Int t.l_sum);
      ("min", Json.Int t.l_min);
      ("max", Json.Int t.l_max);
      ("mean", Json.Float (mean t));
      ("p50", Json.Float (p50 t));
      ("p90", Json.Float (quantile t 0.9));
      ("p99", Json.Float (p99 t));
      ("p999", Json.Float (p999 t));
    ]

let pp ppf t =
  Format.fprintf ppf
    "%s (n=%d, min=%d, max=%d, mean=%.1f, p50=%.1f, p99=%.1f, p999=%.1f)"
    t.l_name t.l_count t.l_min t.l_max (mean t) (p50 t) (p99 t) (p999 t)
