type 'snap t = {
  size : int;
  mutable lo : int;
  mutable hi : int;
  mutable armed : 'snap option;
}

(* The empty window is [max_int, 0): any real range widens it correctly. *)
let create ~size = { size; lo = max_int; hi = 0; armed = None }

let widen t ~lo ~hi =
  if lo < t.lo then t.lo <- lo;
  if hi > t.hi then t.hi <- hi

let clear t =
  t.lo <- max_int;
  t.hi <- 0

let arm t s =
  t.armed <- Some s;
  clear t

let rewind t s =
  match t.armed with
  | Some a when a == s -> ()
  | _ ->
    widen t ~lo:0 ~hi:t.size;
    t.armed <- Some s

let lo t = t.lo
let hi t = t.hi
