type slot_info = { sb_size : int; mutable sb_freed : bool; mutable sb_tagged : bool }
type t = { slots : (int, slot_info) Hashtbl.t; pre_laundered : (int, unit) Hashtbl.t }

let create () = { slots = Hashtbl.create 8; pre_laundered = Hashtbl.create 4 }

let launder t ~slot =
  Hashtbl.replace t.pre_laundered slot ();
  match Hashtbl.find_opt t.slots slot with
  | Some info -> info.sb_tagged <- false
  | None -> ()

(* A tagged access is checked against exact bounds; an untagged one is
   invisible. Temporal checking works through the tag too (CETS-style
   key/lock, abstracted to the freed flag). *)
let check_access t ~slot ~lo ~hi =
  match Hashtbl.find_opt t.slots slot with
  | None -> false
  | Some info ->
    info.sb_tagged && (info.sb_freed || lo < 0 || hi > info.sb_size)

let run t (sc : Scenario.t) =
  let detected = ref false in
  let note b = if b then detected := true in
  List.iter
    (fun step ->
      match step with
      | Scenario.Alloc { slot; size; _ } ->
        Hashtbl.replace t.slots slot
          {
            sb_size = size;
            sb_freed = false;
            sb_tagged = not (Hashtbl.mem t.pre_laundered slot);
          }
      | Scenario.Free_slot slot -> (
        match Hashtbl.find_opt t.slots slot with
        | Some info ->
          (* double free is caught only while the tag lives *)
          if info.sb_freed && info.sb_tagged then detected := true;
          info.sb_freed <- true
        | None -> ())
      | Scenario.Free_at { slot; delta } -> (
        match Hashtbl.find_opt t.slots slot with
        | Some info ->
          if info.sb_tagged && delta <> 0 then detected := true;
          if delta = 0 then info.sb_freed <- true
        | None -> ())
      | Scenario.Access { slot; off; width } ->
        note (check_access t ~slot ~lo:off ~hi:(off + width))
      | Scenario.Access_loop { slot; from_; to_; step; width } ->
        Scenario.iter_loop ~from_ ~to_ ~step (fun off ->
            note (check_access t ~slot ~lo:off ~hi:(off + width)))
      | Scenario.Region { slot; off; len } ->
        if len > 0 then note (check_access t ~slot ~lo:off ~hi:(off + len))
      | Scenario.Access_null _ ->
        (* a null dereference faults regardless of tags *)
        detected := true)
    sc.Scenario.sc_steps;
  !detected

let run_with_laundering ~launder_slots sc =
  let t = create () in
  List.iter (fun slot -> launder t ~slot) launder_slots;
  run t sc
