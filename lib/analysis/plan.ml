type decision = Plain | Cached | Eliminated

type region = {
  rg_base : string;
  rg_lo : Giantsan_ir.Ast.expr;
  rg_hi : Giantsan_ir.Ast.expr;
}

type memo = ..
type memo += Unresolved

type t = {
  mode_name : string;
  enabled : bool;
  use_anchor : bool;
  decisions : (int, decision) Hashtbl.t;
  loop_pre : (int, region list) Hashtbl.t;
  stmt_pre : (int, region list) Hashtbl.t;
  loop_caches : (int, string list) Hashtbl.t;
  mutable memo : memo;
}

let create ~mode_name ~enabled ~use_anchor =
  {
    mode_name;
    enabled;
    use_anchor;
    decisions = Hashtbl.create 64;
    loop_pre = Hashtbl.create 16;
    stmt_pre = Hashtbl.create 16;
    loop_caches = Hashtbl.create 16;
    memo = Unresolved;
  }

let decision_of t id =
  match Hashtbl.find_opt t.decisions id with Some d -> d | None -> Plain

let set_decision t id d =
  t.memo <- Unresolved;
  Hashtbl.replace t.decisions id d

let add_to_list t tbl key v =
  t.memo <- Unresolved;
  let prev = match Hashtbl.find_opt tbl key with Some l -> l | None -> [] in
  Hashtbl.replace tbl key (prev @ [ v ])

let add_loop_pre t id r = add_to_list t t.loop_pre id r
let add_stmt_pre t id r = add_to_list t t.stmt_pre id r

let add_loop_cache t id v =
  t.memo <- Unresolved;
  let prev =
    match Hashtbl.find_opt t.loop_caches id with Some l -> l | None -> []
  in
  if not (List.mem v prev) then Hashtbl.replace t.loop_caches id (prev @ [ v ])

let find_list tbl key =
  match Hashtbl.find_opt tbl key with Some l -> l | None -> []

let loop_pre_of t id = find_list t.loop_pre id
let stmt_pre_of t id = find_list t.stmt_pre id
let caches_of t id = find_list t.loop_caches id

type static_stats = {
  s_plain : int;
  s_cached : int;
  s_eliminated : int;
  s_pre_checks : int;
}

let static_stats t =
  let plain = ref 0 and cached = ref 0 and elim = ref 0 in
  Hashtbl.iter
    (fun _ d ->
      match d with
      | Plain -> incr plain
      | Cached -> incr cached
      | Eliminated -> incr elim)
    t.decisions;
  let pre = ref 0 in
  Hashtbl.iter (fun _ l -> pre := !pre + List.length l) t.loop_pre;
  Hashtbl.iter (fun _ l -> pre := !pre + List.length l) t.stmt_pre;
  { s_plain = !plain; s_cached = !cached; s_eliminated = !elim; s_pre_checks = !pre }
