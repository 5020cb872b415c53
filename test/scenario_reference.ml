(* The scenario executor that the shared step executor replaced: a walk
   per loop through [iter_loop]'s callback and a [note] closure, slots in
   a polymorphic [Hashtbl]; and the offset-by-offset [loop_bounded] that
   the closed-form trip count replaced. They are kept verbatim as the
   reference of the differential property at the end of test_fuzz.ml,
   apart from this header and the module aliases. They are never linked
   into the libraries. *)

module Memsim = Giantsan_memsim
module San = Giantsan_sanitizer.Sanitizer
open Giantsan_bugs.Scenario

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
