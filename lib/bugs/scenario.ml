module Memsim = Giantsan_memsim
module San = Giantsan_sanitizer.Sanitizer

type step =
  | Alloc of { slot : int; size : int; kind : Memsim.Memobj.kind }
  | Free_slot of int
  | Free_at of { slot : int; delta : int }
  | Access of { slot : int; off : int; width : int }
  | Access_loop of { slot : int; from_ : int; to_ : int; step : int; width : int }
  | Region of { slot : int; off : int; len : int }
  | Access_null of { off : int; width : int }

type t = { sc_id : string; sc_cwe : int; sc_buggy : bool; sc_steps : step list }

let max_loop_trips = 1 lsl 20
let max_replay_offset = 1 lsl 32

(* [a >= b] with both read as unsigned 63-bit numbers: adding [min_int]
   flips the sign bit, which maps unsigned order onto signed order. *)
let uge a b = a + min_int >= b + min_int

(* [n / m] with both read as unsigned ([m <> 0]). A divisor at or above
   2^62 goes into [n] at most once; otherwise halve [n] so the signed
   division cannot see its sign bit, then correct the one possible
   unit (Hacker's Delight, 9-3). *)
let udiv n m =
  if m < 0 then if uge n m then 1 else 0
  else if n >= 0 then n / m
  else
    let q = ((n lsr 1) / m) lsl 1 in
    if uge (n - (q * m)) m then q + 1 else q

(* The one stepping rule: offset k is from_ + k * step, visited while it
   lies strictly before to_ (above it when step < 0). Every such offset is
   in the int range, since to_ is; the step after the last one may leave
   it, and the walk ends there instead of wrapping. The count is
   floor(d / |step|) + 1 for the exact distance d = |to_ - from_| - 1,
   which can pass max_int (to_ - from_ spans up to 2^63 - 2), so [trips]
   takes d and |step| unsigned; a count past max_int saturates. *)
let trips d m =
  let k = udiv d m in
  if k < 0 || k = max_int then max_int else k + 1

let loop_trips ~from_ ~to_ ~step =
  assert (step <> 0);
  if step > 0 then if from_ >= to_ then 0 else trips (to_ - 1 - from_) step
  else if from_ <= to_ then 0
  else trips (from_ - 1 - to_) (-step)

(* The step after the last trip may wrap; it is never used. *)
let iter_loop ~from_ ~to_ ~step f =
  let off = ref from_ in
  for _ = 1 to loop_trips ~from_ ~to_ ~step do
    f !off;
    off := !off + step
  done

(* Offsets are monotone, so only the last one's step can leave the int
   range. [(trips - 1) * step] may wrap, but its sum with from_ is an
   offset the walk visits, so the modular result is exact. *)
let loop_bounded ~from_ ~to_ ~step =
  let trips = loop_trips ~from_ ~to_ ~step in
  trips = 0
  || trips <= max_loop_trips
     &&
     let last = from_ + ((trips - 1) * step) in
     if step > 0 then last <= max_int - step else last >= min_int - step

let loop_offsets ~from_ ~to_ ~step =
  let acc = ref [] in
  iter_loop ~from_ ~to_ ~step (fun off -> acc := off :: !acc);
  List.rev !acc

(* The slot table: a scenario names 2-4 slots, so a linear scan of an int
   array beats hashing. [keys.(i)] holds [vals.(i)] for [i < n]; both
   arrays double when full. *)
type slots = { mutable keys : int array; mutable vals : int array; mutable n : int }

let slots () = { keys = Array.make 4 0; vals = Array.make 4 0; n = 0 }

(* The index of [slot] at or after [i], or -1. Top-level, so a lookup
   builds no closure. *)
let rec slot_from t slot i =
  if i >= t.n then -1
  else if Array.unsafe_get t.keys i = slot then i
  else slot_from t slot (i + 1)

let slot_index t slot = slot_from t slot 0

let slot_set t slot v =
  let i = slot_index t slot in
  if i >= 0 then Array.unsafe_set t.vals i v
  else begin
    if t.n = Array.length t.keys then begin
      let grow a = Array.append a (Array.make t.n 0) in
      t.keys <- grow t.keys;
      t.vals <- grow t.vals
    end;
    t.keys.(t.n) <- slot;
    t.vals.(t.n) <- v;
    t.n <- t.n + 1
  end

let slot_base t ~sc_id slot =
  let i = slot_index t slot in
  if i < 0 then failwith (sc_id ^ ": use of unallocated slot")
  else Array.unsafe_get t.vals i

let note acc = function None -> acc | Some r -> r :: acc

let exec_step (san : San.t) ~sc_id slots acc step =
  match step with
  | Alloc { slot; size; kind } ->
    (* a literal constructor per arm makes [?kind]'s [Some] a static
       constant: passing [~kind] through would box it on every malloc *)
    let malloc = san.San.malloc in
    let obj =
      match kind with
      | Memsim.Memobj.Heap -> malloc ~kind:Memsim.Memobj.Heap size
      | Stack -> malloc ~kind:Stack size
      | Global -> malloc ~kind:Global size
    in
    slot_set slots slot obj.Memsim.Memobj.base;
    acc
  | Free_slot slot -> note acc (san.San.free (slot_base slots ~sc_id slot))
  | Free_at { slot; delta } ->
    note acc (san.San.free (slot_base slots ~sc_id slot + delta))
  | Access { slot; off; width } ->
    let b = slot_base slots ~sc_id slot in
    note acc (san.San.access ~base:b ~addr:(b + off) ~width)
  | Access_loop { slot; from_; to_; step; width } ->
    (* the sanitizer's check is called straight from the loop, and a
       report goes straight onto the list: no closure per offset *)
    let b = slot_base slots ~sc_id slot in
    let cache = san.San.new_cache ~base:b in
    let cached_access = san.San.cached_access in
    let acc = ref acc and off = ref from_ in
    for _ = 1 to loop_trips ~from_ ~to_ ~step do
      (match cached_access cache ~off:!off ~width with
      | None -> ()
      | Some r -> acc := r :: !acc);
      off := !off + step
    done;
    note !acc (san.San.flush_cache cache)
  | Region { slot; off; len } ->
    let b = slot_base slots ~sc_id slot in
    if len > 0 then note acc (san.San.check_region ~lo:(b + off) ~hi:(b + off + len))
    else acc
  | Access_null { off; width } -> note acc (san.San.access ~base:0 ~addr:off ~width)

let run_reports san t =
  let slots = slots () in
  let rec go acc = function
    | [] -> List.rev acc
    | step :: rest -> go (exec_step san ~sc_id:t.sc_id slots acc step) rest
  in
  go [] t.sc_steps

let run san t = match run_reports san t with [] -> false | _ :: _ -> true

(* Static ground truth from the step list alone: sizes and lifetimes are
   known by construction. [size] and [freed] (1 once freed) gain a slot
   together, on its first [Alloc], so a slot has one index in both. *)
let ground_truth t =
  let size = slots () and freed = slots () in
  let violation = ref false in
  let oob slot off width =
    let i = slot_index size slot in
    i < 0 || freed.vals.(i) = 1 || off < 0 || off > size.vals.(i) - width
  in
  (* a second free, or a free of a slot never allocated, is a violation *)
  let free slot =
    let i = slot_index size slot in
    if i < 0 || freed.vals.(i) = 1 then violation := true else freed.vals.(i) <- 1
  in
  List.iter
    (fun step ->
      match step with
      | Alloc { slot; size = n; _ } ->
        slot_set size slot n;
        slot_set freed slot 0
      | Free_slot slot -> free slot
      | Free_at { slot; delta } -> if delta <> 0 then violation := true else free slot
      | Access { slot; off; width } ->
        if oob slot off width then violation := true
      | Access_loop { slot; from_; to_; step; width } ->
        iter_loop ~from_ ~to_ ~step (fun off ->
            if oob slot off width then violation := true)
      | Region { slot; off; len } ->
        if len > 0 && oob slot off len then violation := true
      | Access_null _ -> violation := true)
    t.sc_steps;
  !violation

let validate t =
  let violation = ground_truth t in
  if violation = t.sc_buggy then Ok ()
  else
    Error
      (Printf.sprintf "%s: labelled %s but ground truth says %s" t.sc_id
         (if t.sc_buggy then "buggy" else "clean")
         (if violation then "buggy" else "clean"))
