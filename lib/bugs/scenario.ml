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

(* The one stepping rule: from_, from_ + step, ... strictly before to_
   (above it when step < 0). A step that would leave the int range ends
   the walk, where unchecked [+] would wrap and go on. The loop runs up to
   [lim], below which no step overflows, so it needs no check per offset;
   at most one offset lies between [lim] and [to_], and its step would
   overflow. *)
let iter_loop ~from_ ~to_ ~step f =
  assert (step <> 0);
  let off = ref from_ in
  if step > 0 then begin
    let lim = Int.min to_ (max_int - step + 1) in
    while !off < lim do
      f !off;
      off := !off + step
    done;
    if !off < to_ then f !off
  end
  else begin
    let lim = Int.max to_ (min_int - step - 1) in
    while !off > lim do
      f !off;
      off := !off + step
    done;
    if !off > to_ then f !off
  end

let loop_bounded ~from_ ~to_ ~step =
  assert (step <> 0);
  let rec walk off n =
    (not (if step > 0 then off < to_ else off > to_))
    || n < max_loop_trips
       && (if step > 0 then off <= max_int - step else off >= min_int - step)
       && walk (off + step) (n + 1)
  in
  walk from_ 0

let loop_offsets ~from_ ~to_ ~step =
  let acc = ref [] in
  iter_loop ~from_ ~to_ ~step (fun off -> acc := off :: !acc);
  List.rev !acc

let run_reports (san : San.t) t =
  let slots = Hashtbl.create 4 in
  let base slot =
    match Hashtbl.find_opt slots slot with
    | Some b -> b
    | None -> failwith (t.sc_id ^ ": use of unallocated slot")
  in
  let reports = ref [] in
  let note = function None -> () | Some r -> reports := r :: !reports in
  List.iter
    (fun step ->
      match step with
      | Alloc { slot; size; kind } ->
        let obj = san.San.malloc ~kind size in
        Hashtbl.replace slots slot obj.Memsim.Memobj.base
      | Free_slot slot -> note (san.San.free (base slot))
      | Free_at { slot; delta } -> note (san.San.free (base slot + delta))
      | Access { slot; off; width } ->
        let b = base slot in
        note (san.San.access ~base:b ~addr:(b + off) ~width)
      | Access_loop { slot; from_; to_; step; width } ->
        let b = base slot in
        let cache = san.San.new_cache ~base:b in
        iter_loop ~from_ ~to_ ~step (fun off ->
            note (san.San.cached_access cache ~off ~width));
        note (san.San.flush_cache cache)
      | Region { slot; off; len } ->
        let b = base slot in
        if len > 0 then note (san.San.check_region ~lo:(b + off) ~hi:(b + off + len))
      | Access_null { off; width } ->
        note (san.San.access ~base:0 ~addr:off ~width))
    t.sc_steps;
  List.rev !reports

let run san t = run_reports san t <> []

(* Static ground truth from the step list alone: sizes and lifetimes are
   known by construction. *)
let ground_truth t =
  let slots = Hashtbl.create 4 in
  let violation = ref false in
  let oob slot off width =
    match Hashtbl.find_opt slots slot with
    | None -> true
    | Some (size, freed) -> freed || off < 0 || off > size - width
  in
  List.iter
    (fun step ->
      match step with
      | Alloc { slot; size; _ } -> Hashtbl.replace slots slot (size, false)
      | Free_slot slot -> (
        match Hashtbl.find_opt slots slot with
        | Some (size, false) -> Hashtbl.replace slots slot (size, true)
        | Some (_, true) | None -> violation := true)
      | Free_at { slot; delta } ->
        if delta <> 0 then violation := true
        else (
          match Hashtbl.find_opt slots slot with
          | Some (size, false) -> Hashtbl.replace slots slot (size, true)
          | Some (_, true) | None -> violation := true)
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
