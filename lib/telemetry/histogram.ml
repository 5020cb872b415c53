(* 63 value buckets cover every positive OCaml int; +1 for the <=0 bucket. *)
let n_buckets = 64

type t = {
  h_name : string;
  h_buckets : int array;
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_max : int;
}

let bucket_of_value v =
  if v <= 0 then 0
  else begin
    (* floor (log2 v) + 1, by bit position *)
    let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
    go 0 v
  end

let bucket_lo i = if i <= 0 then 0 else 1 lsl (i - 1)

let create name =
  { h_name = name; h_buckets = Array.make n_buckets 0; h_count = 0; h_sum = 0; h_max = 0 }

let name t = t.h_name

let observe t v =
  let b = bucket_of_value v in
  t.h_buckets.(b) <- t.h_buckets.(b) + 1;
  t.h_count <- t.h_count + 1;
  t.h_sum <- t.h_sum + v;
  if v > t.h_max then t.h_max <- v

let count t = t.h_count
let sum t = t.h_sum
let max_value t = t.h_max
let buckets t = Array.copy t.h_buckets

let reset t =
  Array.fill t.h_buckets 0 n_buckets 0;
  t.h_count <- 0;
  t.h_sum <- 0;
  t.h_max <- 0

let merge a b =
  if a.h_name <> b.h_name then
    invalid_arg
      (Printf.sprintf "Histogram.merge: %s vs %s" a.h_name b.h_name);
  let r = create a.h_name in
  Array.iteri (fun i v -> r.h_buckets.(i) <- v + b.h_buckets.(i)) a.h_buckets;
  r.h_count <- a.h_count + b.h_count;
  r.h_sum <- a.h_sum + b.h_sum;
  r.h_max <- max a.h_max b.h_max;
  r

let equal a b =
  a.h_name = b.h_name && a.h_buckets = b.h_buckets && a.h_count = b.h_count
  && a.h_sum = b.h_sum && a.h_max = b.h_max

(* half-open value range of bucket [i]: [0,1) for the zero bucket,
   [2^(i-1), 2^i) above it *)
let bucket_hi i = if i <= 0 then 1 else 1 lsl i

let quantile t q =
  if t.h_count = 0 then 0.0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = q *. float_of_int (t.h_count - 1) in
    (* the bucket holding order statistic floor(rank), by cumulative count *)
    let rec find i cum =
      let c = t.h_buckets.(i) in
      if float_of_int (cum + c) > rank then (i, cum, c)
      else find (i + 1) (cum + c)
    in
    let i, cum, c = find 0 0 in
    let lo = bucket_lo i and hi = bucket_hi i in
    let pos = (rank -. float_of_int cum) /. float_of_int c in
    let v = float_of_int lo +. (pos *. float_of_int (hi - lo)) in
    (* the log2 bucket only bounds the value; never report past the
       observed maximum (makes [quantile t 1.0] exact) *)
    Float.min v (float_of_int t.h_max)
  end

let bucket_label i = if i = 0 then "0" else Printf.sprintf "2^%d" (i - 1)

let to_assoc t =
  List.filter_map
    (fun i ->
      if t.h_buckets.(i) = 0 then None
      else Some (bucket_label i, t.h_buckets.(i)))
    (List.init n_buckets Fun.id)

let to_json t =
  Json.Obj
    [
      ("name", Json.Str t.h_name);
      ("count", Json.Int t.h_count);
      ("sum", Json.Int t.h_sum);
      ("max", Json.Int t.h_max);
      ( "buckets",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (to_assoc t)) );
    ]

let pp ppf t =
  Format.fprintf ppf "@[<v>%s (n=%d, sum=%d, max=%d)@," t.h_name t.h_count
    t.h_sum t.h_max;
  List.iter
    (fun (k, v) -> Format.fprintf ppf "  %-6s %d@," k v)
    (to_assoc t);
  Format.fprintf ppf "@]"

type set = {
  h_loads_per_check : t;
  h_fold_degree : t;
  h_access_width : t;
  h_quarantine_residency : t;
}

let create_set () =
  {
    h_loads_per_check = create "loads_per_region_check";
    h_fold_degree = create "fold_degree_at_poison";
    h_access_width = create "access_width";
    h_quarantine_residency = create "quarantine_residency";
  }

let merge_set a b =
  {
    h_loads_per_check = merge a.h_loads_per_check b.h_loads_per_check;
    h_fold_degree = merge a.h_fold_degree b.h_fold_degree;
    h_access_width = merge a.h_access_width b.h_access_width;
    h_quarantine_residency =
      merge a.h_quarantine_residency b.h_quarantine_residency;
  }

let set_to_list s =
  [
    s.h_loads_per_check; s.h_fold_degree; s.h_access_width;
    s.h_quarantine_residency;
  ]

let set_to_json s = Json.List (List.map to_json (set_to_list s))
