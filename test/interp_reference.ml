(* The tree-walking interpreter that the slot-resolved [Interp] replaced:
   a string-keyed [Hashtbl] environment per frame and a [Plan] lookup per
   access. It is kept verbatim as the reference of the differential tests
   in test_interp_diff.ml, apart from this header, the [Plan] alias and
   the shared [exec_stats] type. It is never linked into the libraries. *)

module Plan = Giantsan_analysis.Plan
module Ast = Giantsan_ir.Ast
module San = Giantsan_sanitizer.Sanitizer
module Report = Giantsan_sanitizer.Report
module Counters = Giantsan_sanitizer.Counters
module Memsim = Giantsan_memsim

type exec_stats = Giantsan_analysis.Interp.exec_stats = {
  mutable x_plain : int;
  mutable x_plain_fast : int;
  mutable x_cached : int;
  mutable x_eliminated : int;
  mutable x_unchecked : int;
}

type outcome = {
  reports : Report.t list;
  ops : int;
  stats : exec_stats;
  crashed : bool;
  out_of_memory : bool;
  fuel_exhausted : bool;
  final_env : (string * int) list;
}

exception Crash
exception Fuel
exception Oom
exception Return_value of int

let max_call_depth = 200

type state = {
  san : San.t;
  plan : Plan.t;
  mutable env : (string, int) Hashtbl.t;
  arena : Memsim.Arena.t;
  funcs : (string, Ast.func) Hashtbl.t;
  stats : exec_stats;
  mutable fuel : int;
  mutable ops : int;
  mutable depth : int;
  mutable frame : int list ref;  (** allocas of the current function frame *)
  mutable reports_rev : Report.t list;
  mutable cache_frames : (string, San.cache) Hashtbl.t list;
}

let tick st n =
  st.ops <- st.ops + n;
  st.fuel <- st.fuel - n;
  if st.fuel < 0 then raise Fuel

let record st = function
  | None -> false
  | Some r ->
    st.reports_rev <- r :: st.reports_rev;
    true

let lookup st v =
  match Hashtbl.find_opt st.env v with
  | Some x -> x
  | None -> failwith ("Interp: unbound variable " ^ v)

let find_cache st base =
  let rec go = function
    | [] -> None
    | frame :: rest -> (
      match Hashtbl.find_opt frame base with
      | Some c -> Some c
      | None -> go rest)
  in
  go st.cache_frames

let run_region st (r : Plan.region) eval =
  let base = lookup st r.Plan.rg_base in
  let lo = base + eval r.Plan.rg_lo and hi = base + eval r.Plan.rg_hi in
  if hi > lo then ignore (record st (st.san.San.check_region ~lo ~hi))

let rec eval st (e : Ast.expr) =
  match e with
  | Ast.Int n -> n
  | Ast.Var v -> lookup st v
  | Ast.Bin (op, a, b) -> (
    tick st 1;
    let x = eval st a and y = eval st b in
    match op with
    | Ast.Add -> x + y
    | Ast.Sub -> x - y
    | Ast.Mul -> x * y
    | Ast.Div -> if y = 0 then raise Crash else x / y
    | Ast.Rem -> if y = 0 then raise Crash else x mod y)
  | Ast.Cmp (op, a, b) ->
    tick st 1;
    let x = eval st a and y = eval st b in
    let r =
      match op with
      | Ast.Lt -> x < y
      | Ast.Le -> x <= y
      | Ast.Gt -> x > y
      | Ast.Ge -> x >= y
      | Ast.Eq -> x = y
      | Ast.Ne -> x <> y
    in
    if r then 1 else 0
  | Ast.Load acc ->
    let addr = address st acc in
    if checked_access st acc addr then
      try Memsim.Arena.load st.arena ~addr ~width:(Ast.bytes_of_width acc.width)
      with Invalid_argument _ -> raise Crash
    else 0

and address st (acc : Ast.access) =
  lookup st acc.Ast.base + (eval st acc.Ast.index * acc.Ast.scale) + acc.Ast.disp

(* Returns true when the memory operation should really execute (no
   detected violation stands in the way). *)
and checked_access st (acc : Ast.access) addr =
  tick st 1;
  let width = Ast.bytes_of_width acc.Ast.width in
  (* merged-span checks scheduled just before this access: the span check
     IS this site's check, so it counts as the (possibly fast) plain one *)
  let pres = Plan.stmt_pre_of st.plan acc.Ast.acc_id in
  let ran_span =
    match pres with
    | [] -> false
    | pres ->
      let fast0 = st.san.San.counters.Counters.fast_checks in
      let slow0 = st.san.San.counters.Counters.slow_checks in
      List.iter (fun r -> run_region st r (eval st)) pres;
      if st.plan.Plan.enabled then begin
        st.stats.x_plain <- st.stats.x_plain + 1;
        let fast1 = st.san.San.counters.Counters.fast_checks in
        let slow1 = st.san.San.counters.Counters.slow_checks in
        if fast1 > fast0 && slow1 = slow0 then
          st.stats.x_plain_fast <- st.stats.x_plain_fast + 1
      end;
      true
  in
  if not st.plan.Plan.enabled then begin
    st.stats.x_unchecked <- st.stats.x_unchecked + 1;
    true
  end
  else
    match Plan.decision_of st.plan acc.Ast.acc_id with
    | Plan.Eliminated ->
      if not ran_span then
        st.stats.x_eliminated <- st.stats.x_eliminated + 1;
      true
    | Plan.Cached -> (
      match find_cache st acc.Ast.base with
      | Some cache ->
        st.stats.x_cached <- st.stats.x_cached + 1;
        let off = addr - cache.San.cache_base in
        not (record st (st.san.San.cached_access cache ~off ~width))
      | None -> plain_access st acc addr width)
    | Plan.Plain -> plain_access st acc addr width

and plain_access st (acc : Ast.access) addr width =
  st.stats.x_plain <- st.stats.x_plain + 1;
  let anchor =
    if st.plan.Plan.use_anchor then lookup st acc.Ast.base else 0
  in
  let fast0 = st.san.San.counters.Counters.fast_checks in
  let slow0 = st.san.San.counters.Counters.slow_checks in
  let r = st.san.San.access ~base:anchor ~addr ~width in
  let fast1 = st.san.San.counters.Counters.fast_checks in
  let slow1 = st.san.San.counters.Counters.slow_checks in
  if fast1 > fast0 && slow1 = slow0 then
    st.stats.x_plain_fast <- st.stats.x_plain_fast + 1;
  not (record st r)

let enter_caches st loop_id =
  let vars = Plan.caches_of st.plan loop_id in
  if vars = [] then None
  else begin
    let frame = Hashtbl.create (List.length vars) in
    List.iter
      (fun v ->
        match Hashtbl.find_opt st.env v with
        | Some base -> Hashtbl.replace frame v (st.san.San.new_cache ~base)
        | None -> ())
      vars;
    st.cache_frames <- frame :: st.cache_frames;
    Some frame
  end

let exit_caches st = function
  | None -> ()
  | Some frame ->
    (match st.cache_frames with
    | f :: rest when f == frame -> st.cache_frames <- rest
    | _ -> ());
    Hashtbl.iter
      (fun _ cache -> ignore (record st (st.san.San.flush_cache cache)))
      frame

let rec exec_block st stmts = List.iter (exec_stmt st) stmts

and exec_stmt st stmt =
  tick st 1;
  match stmt with
  | Ast.Assign (v, e) -> Hashtbl.replace st.env v (eval st e)
  | Ast.Store (acc, e) ->
    let value = eval st e in
    let addr = address st acc in
    if checked_access st acc addr then begin
      try
        Memsim.Arena.store st.arena ~addr
          ~width:(Ast.bytes_of_width acc.Ast.width) value
      with Invalid_argument _ -> raise Crash
    end
  | Ast.Malloc (v, e) ->
    let size = eval st e in
    if size < 0 then raise Crash;
    let obj = try st.san.San.malloc size with Out_of_memory -> raise Oom in
    Hashtbl.replace st.env v obj.Memsim.Memobj.base
  | Ast.Alloca (v, e) ->
    let size = eval st e in
    if size < 0 then raise Crash;
    let obj =
      try st.san.San.malloc ~kind:Memsim.Memobj.Stack size
      with Out_of_memory -> raise Oom
    in
    st.frame := obj.Memsim.Memobj.base :: !(st.frame);
    Hashtbl.replace st.env v obj.Memsim.Memobj.base
  | Ast.Call { dst; callee; args } ->
    let f =
      match Hashtbl.find_opt st.funcs callee with
      | Some f -> f
      | None -> failwith ("Interp: unknown function " ^ callee)
    in
    let arg_values = List.map (eval st) args in
    if st.depth >= max_call_depth then raise Crash;
    let caller_env = st.env and caller_frame = st.frame in
    let callee_env = Hashtbl.create 16 in
    (try List.iter2 (Hashtbl.replace callee_env) f.Ast.fn_params arg_values
     with Invalid_argument _ ->
       failwith ("Interp: arity mismatch calling " ^ callee));
    st.env <- callee_env;
    st.frame <- ref [];
    st.depth <- st.depth + 1;
    let restore () =
      (* the frame dies: every alloca is reclaimed and its shadow poisoned *)
      List.iter
        (fun base -> ignore (record st (st.san.San.free base)))
        !(st.frame);
      st.env <- caller_env;
      st.frame <- caller_frame;
      st.depth <- st.depth - 1
    in
    let result =
      try
        exec_block st f.Ast.fn_body;
        restore ();
        0
      with
      | Return_value v ->
        restore ();
        v
      | e ->
        restore ();
        raise e
    in
    (match dst with
    | Some v -> Hashtbl.replace st.env v result
    | None -> ())
  | Ast.Return e ->
    let v = match e with None -> 0 | Some e -> eval st e in
    raise (Return_value v)
  | Ast.Free e ->
    let ptr = eval st e in
    ignore (record st (st.san.San.free ptr))
  | Ast.Memset { mem_id; dst; doff; len; value } ->
    let base = lookup st dst in
    let lo = base + eval st doff in
    let n = eval st len in
    let v = eval st value in
    if n > 0 then begin
      tick st (1 + (n / 8));
      let checked =
        if st.plan.Plan.enabled then
          match Plan.decision_of st.plan mem_id with
          | Plan.Eliminated -> true
          | Plan.Plain | Plan.Cached ->
            not (record st (st.san.San.check_region ~lo ~hi:(lo + n)))
        else true
      in
      if checked then begin
        try Memsim.Arena.fill st.arena ~addr:lo ~len:n v
        with Invalid_argument _ -> raise Crash
      end
    end
  | Ast.Memcpy { mem_id; dst; doff; src; soff; len } ->
    let dbase = lookup st dst and sbase = lookup st src in
    let dlo = dbase + eval st doff and slo = sbase + eval st soff in
    let n = eval st len in
    if n > 0 then begin
      tick st (1 + (n / 8));
      let checked =
        if st.plan.Plan.enabled then
          match Plan.decision_of st.plan mem_id with
          | Plan.Eliminated -> true
          | Plan.Plain | Plan.Cached ->
            let r1 = record st (st.san.San.check_region ~lo:slo ~hi:(slo + n)) in
            let r2 = record st (st.san.San.check_region ~lo:dlo ~hi:(dlo + n)) in
            not (r1 || r2)
        else true
      in
      if checked then begin
        try Memsim.Arena.blit st.arena ~src:slo ~dst:dlo ~len:n
        with Invalid_argument _ -> raise Crash
      end
    end
  | Ast.For { loop_id; idx; lo; hi; body } ->
    let lo = eval st lo and hi = eval st hi in
    let frame = enter_caches st loop_id in
    if lo < hi && st.plan.Plan.enabled then
      List.iter
        (fun r -> run_region st r (eval st))
        (Plan.loop_pre_of st.plan loop_id);
    let i = ref lo in
    (try
       while !i < hi do
         tick st 1;
         Hashtbl.replace st.env idx !i;
         exec_block st body;
         incr i
       done;
       exit_caches st frame
     with e ->
       exit_caches st frame;
       raise e)
  | Ast.While { loop_id; cond; body } ->
    let frame = enter_caches st loop_id in
    (try
       while eval st cond <> 0 do
         tick st 1;
         exec_block st body
       done;
       exit_caches st frame
     with e ->
       exit_caches st frame;
       raise e)
  | Ast.If { cond; then_; else_ } ->
    if eval st cond <> 0 then exec_block st then_ else exec_block st else_

let run ?(fuel = 50_000_000) (san : San.t) plan (prog : Ast.program) =
  let stats =
    { x_plain = 0; x_plain_fast = 0; x_cached = 0; x_eliminated = 0; x_unchecked = 0 }
  in
  let funcs = Hashtbl.create 8 in
  List.iter
    (fun (f : Ast.func) -> Hashtbl.replace funcs f.Ast.fn_name f)
    prog.Ast.funcs;
  let st =
    {
      san;
      plan;
      env = Hashtbl.create 64;
      arena = Memsim.Heap.arena san.San.heap;
      funcs;
      stats;
      fuel;
      ops = 0;
      depth = 0;
      frame = ref [];
      reports_rev = [];
      cache_frames = [];
    }
  in
  let crashed = ref false and oom = ref false and starved = ref false in
  (* globals come to life (and get their redzones) before main runs *)
  (try
     List.iter
       (fun (name, size) ->
         let obj = san.San.malloc ~kind:Memsim.Memobj.Global size in
         Hashtbl.replace st.env name obj.Memsim.Memobj.base)
       prog.Ast.globals
   with Out_of_memory -> oom := true);
  (try if not !oom then exec_block st prog.Ast.body with
  | Crash -> crashed := true
  | Oom -> oom := true
  | Fuel -> starved := true
  | Return_value _ -> () (* return from main ends the program *));
  (* main's frame dies with the program *)
  (try
     List.iter (fun base -> ignore (record st (san.San.free base))) !(st.frame)
   with Crash | Oom | Fuel -> ());
  {
    reports = List.rev st.reports_rev;
    ops = st.ops;
    stats = st.stats;
    crashed = !crashed;
    out_of_memory = !oom;
    fuel_exhausted = !starved;
    final_env = Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.env [];
  }

let var outcome name = List.assoc name outcome.final_env
