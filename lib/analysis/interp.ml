module Ast = Giantsan_ir.Ast
module San = Giantsan_sanitizer.Sanitizer
module Report = Giantsan_sanitizer.Report
module Counters = Giantsan_sanitizer.Counters
module Memsim = Giantsan_memsim

type exec_stats = {
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
exception Returned  (** a [Return]; the value travels in [state.ret] *)

let max_call_depth = 200

(* {1 The resolved tree}

   Each function body (and the main body) is one scope: every variable it
   mentions becomes an integer slot of that scope's frame, in order of
   first mention (the main scope numbers the globals first). Every access,
   memset and memcpy becomes a decision site and every loop a loop site,
   numbered densely across the whole program, so a plan's lookups become
   array reads. The tree lives only until the compiler below has turned
   it into closures. *)

type expr =
  | Int of int
  | Var of int  (** a slot of the current frame *)
  | Unbound of string  (** a plan-region name the frame never binds *)
  | Bin of Ast.binop * expr * expr
  | Cmp of Ast.cmp * expr * expr
  | Load of access

and access = {
  site : int;
  base : expr;  (** [Var] or [Unbound] *)
  base_id : int;  (** the base's interned name, for {!find_cache} *)
  index : expr;
  scale : int;
  disp : int;
  width : int;  (** bytes *)
}

type stmt =
  | Assign of int * expr
  | Store of access * expr
  | Malloc of int * expr
  | Alloca of int * expr
  | Free of expr
  | Memset of { site : int; dst : int; doff : expr; len : expr; value : expr }
  | Memcpy of {
      site : int;
      dst : int;
      doff : expr;
      src : int;
      soff : expr;
      len : expr;
    }
  | For of { loop : int; idx : int; lo : expr; hi : expr; body : stmt array }
  | While of { loop : int; cond : expr; body : stmt array }
  | If of { cond : expr; then_ : stmt array; else_ : stmt array }
  | Call of {
      dst : int;  (** -1: no destination *)
      callee : int;  (** index into the program's functions; -1: none *)
      name : string;
      args : expr array;
    }
  | Return of expr option

type scope = {
  slot_of : (string, int) Hashtbl.t;
  mutable names : string array;  (** slot -> name, filled once resolved *)
}

type site = { id : int; scope : scope }
(** A plan key ([acc_id], [mem_id] or [loop_id]) and the scope it sits in. *)

(* {1 Execution state} *)

type loop_caches = {
  c_slots : int array;  (** cached base variables in plan order *)
  c_names : int array;  (** their interned names *)
  c_flush : int array;
      (** indices into [c_slots] in the order a loop exit flushes them:
          the [Hashtbl.iter] order of the name-keyed table the tree-walking
          interpreter built per loop entry, which this order reproduces *)
}

let no_caches = { c_slots = [||]; c_names = [||]; c_flush = [||] }

type cache_frame = {
  cf_names : int array;  (** interned base names; -1 where none was bound *)
  cf_caches : San.cache array;
  cf_flush : int array;
}

let no_frame = { cf_names = [||]; cf_caches = [||]; cf_flush = [||] }

type state = {
  san : San.t;
  decisions : Plan.decision array;  (** per decision site *)
  stmt_pre : code array array;  (** per decision site: its region checks *)
  loop_pre : code array array;  (** per loop site *)
  loop_caches : loop_caches array;  (** per loop site *)
  enabled : bool;
  use_anchor : bool;
  arena : Memsim.Arena.t;
  stats : exec_stats;
  mutable fuel : int;  (** fuel left; [run] reports the fuel spent as ops *)
  mutable depth : int;
  mutable vals : int array;  (** the current frame *)
  mutable bound : Bytes.t;  (** per slot: '\001' once assigned *)
  mutable slot_names : string array;  (** the current scope's *)
  mutable allocas : int list;  (** allocas of the current function frame *)
  mutable reports_rev : Report.t list;
  mutable cache_frames : cache_frame list;
  mutable ret : int;
}

and code = state -> unit
(** A compiled statement, block or region check. *)

type func = { f_scope : scope; params : int array; f_body : code }

let tick st n =
  st.fuel <- st.fuel - n;
  if st.fuel < 0 then raise Fuel

let record st = function
  | None -> false
  | Some r ->
    st.reports_rev <- r :: st.reports_rev;
    true

let unbound v = failwith ("Interp: unbound variable " ^ v)
let is_bound st s = Bytes.unsafe_get st.bound s <> '\000'

let get st s =
  if is_bound st s then Array.unsafe_get st.vals s
  else unbound (Array.unsafe_get st.slot_names s)

let set st s v =
  Array.unsafe_set st.vals s v;
  Bytes.unsafe_set st.bound s '\001'

let[@inline] arith op x y =
  match op with
  | Ast.Add -> x + y
  | Ast.Sub -> x - y
  | Ast.Mul -> x * y
  | Ast.Div -> if y = 0 then raise Crash else x / y
  | Ast.Rem -> if y = 0 then raise Crash else x mod y

let[@inline] holds op (x : int) y =
  match op with
  | Ast.Lt -> x < y
  | Ast.Le -> x <= y
  | Ast.Gt -> x > y
  | Ast.Ge -> x >= y
  | Ast.Eq -> x = y
  | Ast.Ne -> x <> y

(* Typed [int] so the compare is an immediate one: left generic, [=] is a
   [caml_equal] call on every cached access. *)
let rec index_in (names : int array) (id : int) j =
  if j >= Array.length names then -1
  else if Array.unsafe_get names j = id then j
  else index_in names id (j + 1)

let run_regions st (rs : code array) =
  for k = 0 to Array.length rs - 1 do
    (Array.unsafe_get rs k) st
  done

let plain_access st ~base addr width =
  st.stats.x_plain <- st.stats.x_plain + 1;
  let anchor = if st.use_anchor then get st base else 0 in
  let fast0 = st.san.San.counters.Counters.fast_checks in
  let slow0 = st.san.San.counters.Counters.slow_checks in
  let r = st.san.San.access ~base:anchor ~addr ~width in
  let fast1 = st.san.San.counters.Counters.fast_checks in
  let slow1 = st.san.San.counters.Counters.slow_checks in
  if fast1 > fast0 && slow1 = slow0 then
    st.stats.x_plain_fast <- st.stats.x_plain_fast + 1;
  not (record st r)

(* The innermost live cache of the access's base variable, by name, across
   calls; a plain check when no enclosing loop caches it. *)
let rec find_cache st ~base ~base_id addr width = function
  | [] -> plain_access st ~base addr width
  | f :: rest ->
    let j = index_in f.cf_names base_id 0 in
    if j < 0 then find_cache st ~base ~base_id addr width rest
    else begin
      let cache = Array.unsafe_get f.cf_caches j in
      st.stats.x_cached <- st.stats.x_cached + 1;
      let off = addr - cache.San.cache_base in
      not (record st (st.san.San.cached_access cache ~off ~width))
    end

(* Returns true when the memory operation should really execute (no
   detected violation stands in the way). [base] is the slot of the
   access's base variable. *)
let checked_access st ~site ~base ~base_id ~width addr =
  tick st 1;
  (* merged-span checks scheduled just before this access: the span check
     IS this site's check, so it counts as the (possibly fast) plain one *)
  let pres = Array.unsafe_get st.stmt_pre site in
  let ran_span =
    if Array.length pres = 0 then false
    else begin
      let fast0 = st.san.San.counters.Counters.fast_checks in
      let slow0 = st.san.San.counters.Counters.slow_checks in
      run_regions st pres;
      if st.enabled then begin
        st.stats.x_plain <- st.stats.x_plain + 1;
        let fast1 = st.san.San.counters.Counters.fast_checks in
        let slow1 = st.san.San.counters.Counters.slow_checks in
        if fast1 > fast0 && slow1 = slow0 then
          st.stats.x_plain_fast <- st.stats.x_plain_fast + 1
      end;
      true
    end
  in
  if not st.enabled then begin
    st.stats.x_unchecked <- st.stats.x_unchecked + 1;
    true
  end
  else
    match Array.unsafe_get st.decisions site with
    | Plan.Eliminated ->
      if not ran_span then
        st.stats.x_eliminated <- st.stats.x_eliminated + 1;
      true
    | Plan.Cached -> find_cache st ~base ~base_id addr width st.cache_frames
    | Plan.Plain -> plain_access st ~base addr width

let load_at st ~site ~base ~base_id ~width addr =
  if checked_access st ~site ~base ~base_id ~width addr then
    try Memsim.Arena.load st.arena ~addr ~width
    with Invalid_argument _ -> raise Crash
  else 0

let store_at st ~site ~base ~base_id ~width addr value =
  if checked_access st ~site ~base ~base_id ~width addr then
    try Memsim.Arena.store st.arena ~addr ~width value
    with Invalid_argument _ -> raise Crash

(* Every cached variable bound at loop entry gets a cache, in plan order. *)
let enter_caches st (c : loop_caches) =
  let n = Array.length c.c_slots in
  let frame = ref no_frame in
  for j = 0 to n - 1 do
    let s = Array.unsafe_get c.c_slots j in
    if is_bound st s then begin
      let cache = st.san.San.new_cache ~base:(Array.unsafe_get st.vals s) in
      if !frame == no_frame then
        frame :=
          {
            cf_names = Array.make n (-1);
            cf_caches = Array.make n cache;
            cf_flush = c.c_flush;
          };
      !frame.cf_names.(j) <- c.c_names.(j);
      !frame.cf_caches.(j) <- cache
    end
  done;
  if !frame != no_frame then st.cache_frames <- !frame :: st.cache_frames;
  !frame

let exit_caches st frame =
  if frame != no_frame then begin
    (match st.cache_frames with
    | f :: rest when f == frame -> st.cache_frames <- rest
    | _ -> ());
    let flush = frame.cf_flush in
    for k = 0 to Array.length flush - 1 do
      let j = Array.unsafe_get flush k in
      if frame.cf_names.(j) >= 0 then
        ignore (record st (st.san.San.flush_cache frame.cf_caches.(j)))
    done
  end

(* A call of [f]: the arguments run left to right in the caller's frame,
   then the body in a fresh one. *)
let call st f ~dst ~name (args : (state -> int) array) =
  let n = Array.length f.f_scope.names in
  let vals = Array.make n 0 and bound = Bytes.make n '\000' in
  let arity_ok = Array.length args = Array.length f.params in
  for k = 0 to Array.length args - 1 do
    let v = args.(k) st in
    if arity_ok then begin
      vals.(f.params.(k)) <- v;
      Bytes.set bound f.params.(k) '\001'
    end
  done;
  if st.depth >= max_call_depth then raise Crash;
  if not arity_ok then failwith ("Interp: arity mismatch calling " ^ name);
  let caller_vals = st.vals
  and caller_bound = st.bound
  and caller_names = st.slot_names
  and caller_allocas = st.allocas in
  st.vals <- vals;
  st.bound <- bound;
  st.slot_names <- f.f_scope.names;
  st.allocas <- [];
  st.depth <- st.depth + 1;
  let restore () =
    (* the frame dies: every alloca is reclaimed and its shadow poisoned *)
    List.iter (fun base -> ignore (record st (st.san.San.free base))) st.allocas;
    st.vals <- caller_vals;
    st.bound <- caller_bound;
    st.slot_names <- caller_names;
    st.allocas <- caller_allocas;
    st.depth <- st.depth - 1
  in
  let result =
    match f.f_body st with
    | () ->
      restore ();
      0
    | exception Returned ->
      restore ();
      st.ret
    | exception e ->
      restore ();
      raise e
  in
  if dst >= 0 then set st dst result

let malloc st ~kind size =
  if size < 0 then raise Crash;
  try (st.san.San.malloc ~kind size).Memsim.Memobj.base
  with Out_of_memory -> raise Oom

(* {1 The compiler}

   Each expression becomes a [state -> int] closure, each condition a
   [state -> bool], each statement, block and region check a [code]. A
   closure ticks where the tree walk ticked, before its operands, and
   evaluates them in the tree walk's order: the left operand first, an
   address's index before its base. A variable or constant operand of the
   common shapes (arithmetic and comparison operands, an access's base and
   index, an assigned or stored value) is read in place, not through a
   closure of its own. *)

let rec expr (e : expr) : state -> int =
  match e with
  | Int n -> fun _ -> n
  | Var s -> fun st -> get st s
  | Unbound v -> fun _ -> unbound v
  | Bin (op, a, b) -> bin op a b
  | Cmp _ ->
    let c = cond e in
    fun st -> if c st then 1 else 0
  | Load acc -> load acc

and bin op a b =
  match (a, b) with
  | Var s, Int n -> (
    match op with
    | Ast.Add ->
      fun st ->
        tick st 1;
        get st s + n
    | _ ->
      fun st ->
        tick st 1;
        arith op (get st s) n)
  | Var s, Var t ->
    fun st ->
      tick st 1;
      let x = get st s in
      arith op x (get st t)
  | Int n, Var t ->
    fun st ->
      tick st 1;
      arith op n (get st t)
  | Var s, Bin (op2, Var t, Int m) ->
    fun st ->
      tick st 1;
      let x = get st s in
      tick st 1;
      arith op x (arith op2 (get st t) m)
  | Var s, b ->
    let fb = expr b in
    fun st ->
      tick st 1;
      let x = get st s in
      arith op x (fb st)
  | a, Int n -> (
    let fa = expr a in
    match op with
    | Ast.Add ->
      fun st ->
        tick st 1;
        fa st + n
    | _ ->
      fun st ->
        tick st 1;
        arith op (fa st) n)
  | a, Var t ->
    let fa = expr a in
    fun st ->
      tick st 1;
      let x = fa st in
      arith op x (get st t)
  | a, Bin (op2, Var t, Int m) ->
    let fa = expr a in
    fun st ->
      tick st 1;
      let x = fa st in
      tick st 1;
      arith op x (arith op2 (get st t) m)
  | a, Load { site; base = Var b; base_id; index = Var i; scale; disp; width } ->
    let fa = expr a in
    fun st ->
      tick st 1;
      let x = fa st in
      let i = get st i in
      arith op x
        (load_at st ~site ~base:b ~base_id ~width (get st b + (i * scale) + disp))
  | a, b ->
    let fa = expr a and fb = expr b in
    fun st ->
      tick st 1;
      let x = fa st in
      arith op x (fb st)

and cond (e : expr) : state -> bool =
  match e with
  | Cmp (op, Var s, Int n) -> (
    match op with
    | Ast.Lt ->
      fun st ->
        tick st 1;
        get st s < n
    | _ ->
      fun st ->
        tick st 1;
        holds op (get st s) n)
  | Cmp (op, Var s, Var t) ->
    fun st ->
      tick st 1;
      let x = get st s in
      holds op x (get st t)
  | Cmp (op, a, b) ->
    let fa = expr a and fb = expr b in
    fun st ->
      tick st 1;
      let x = fa st in
      holds op x (fb st)
  | e ->
    let f = expr e in
    fun st -> f st <> 0

and load { site; base; base_id; index; scale; disp; width } =
  match (base, index) with
  | Var b, Var s ->
    fun st ->
      let i = get st s in
      load_at st ~site ~base:b ~base_id ~width (get st b + (i * scale) + disp)
  | Var b, Int n ->
    let off = (n * scale) + disp in
    fun st -> load_at st ~site ~base:b ~base_id ~width (get st b + off)
  | Var b, _ ->
    let fi = expr index in
    fun st ->
      let i = fi st in
      load_at st ~site ~base:b ~base_id ~width (get st b + (i * scale) + disp)
  | Unbound v, _ ->
    (* a plan-region base the scope never binds: the index runs, then the
       base fails *)
    let fi = expr index in
    fun st ->
      ignore (fi st : int);
      unbound v
  | (Int _ | Bin _ | Cmp _ | Load _), _ ->
    invalid_arg "Interp: an access base is a variable"

(* A plan's check of [[base + lo, base + hi)], run before a site or on
   entry to a loop. *)
let region base lo hi : code =
  let fb = expr base and flo = expr lo and fhi = expr hi in
  fun st ->
    let base = fb st in
    let lo = base + flo st in
    let hi = base + fhi st in
    if hi > lo then ignore (record st (st.san.San.check_region ~lo ~hi))

let store { site; base; base_id; index; scale; disp; width } value : code =
  let b =
    match base with
    | Var b -> b
    | _ -> invalid_arg "Interp: a store's base is a variable of its scope"
  in
  match (value, index) with
  | Var v, Var s ->
    fun st ->
      tick st 1;
      let value = get st v in
      let i = get st s in
      store_at st ~site ~base:b ~base_id ~width (get st b + (i * scale) + disp) value
  | Var v, Int n ->
    let off = (n * scale) + disp in
    fun st ->
      tick st 1;
      let value = get st v in
      store_at st ~site ~base:b ~base_id ~width (get st b + off) value
  | _, Var s ->
    let fv = expr value in
    fun st ->
      tick st 1;
      let value = fv st in
      let i = get st s in
      store_at st ~site ~base:b ~base_id ~width (get st b + (i * scale) + disp) value
  | _, Int n ->
    let fv = expr value and off = (n * scale) + disp in
    fun st ->
      tick st 1;
      let value = fv st in
      store_at st ~site ~base:b ~base_id ~width (get st b + off) value
  | _ ->
    let fv = expr value and fi = expr index in
    fun st ->
      tick st 1;
      let value = fv st in
      let i = fi st in
      store_at st ~site ~base:b ~base_id ~width (get st b + (i * scale) + disp) value

(* [compile_block funcs] compiles a statement array; a call reads its
   callee from [funcs] when it runs, so the functions may be compiled after
   their callers. *)
let compile_block (funcs : func array) =
  let rec stmt s : code =
    match s with
    | Assign (v, Int n) ->
      fun st ->
        tick st 1;
        set st v n
    | Assign (v, Var s) ->
      fun st ->
        tick st 1;
        set st v (get st s)
    | Assign (v, Bin (Ast.Add, Var s, Int n)) ->
      fun st ->
        tick st 1;
        tick st 1;
        set st v (get st s + n)
    | Assign (v, Bin (Ast.Add, Var s, e)) ->
      let f = expr e in
      fun st ->
        tick st 1;
        tick st 1;
        let x = get st s in
        set st v (x + f st)
    | Assign (v, Load { site; base = Var b; base_id; index = Var i; scale; disp; width }) ->
      fun st ->
        tick st 1;
        let i = get st i in
        set st v (load_at st ~site ~base:b ~base_id ~width (get st b + (i * scale) + disp))
    | Assign (v, e) ->
      let f = expr e in
      fun st ->
        tick st 1;
        set st v (f st)
    | Store (acc, e) -> store acc e
    | Malloc (v, e) ->
      let f = expr e in
      fun st ->
        tick st 1;
        set st v (malloc st ~kind:Memsim.Memobj.Heap (f st))
    | Alloca (v, e) ->
      let f = expr e in
      fun st ->
        tick st 1;
        let base = malloc st ~kind:Memsim.Memobj.Stack (f st) in
        st.allocas <- base :: st.allocas;
        set st v base
    | Free e ->
      let f = expr e in
      fun st ->
        tick st 1;
        let ptr = f st in
        ignore (record st (st.san.San.free ptr))
    | Memset { site; dst; doff; len; value } ->
      let doff = expr doff and len = expr len and value = expr value in
      fun st ->
        tick st 1;
        let base = get st dst in
        let lo = base + doff st in
        let n = len st in
        let v = value st in
        if n > 0 then begin
          tick st (1 + (n / 8));
          let checked =
            if st.enabled then
              match st.decisions.(site) with
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
    | Memcpy { site; dst; doff; src; soff; len } ->
      let doff = expr doff and soff = expr soff and len = expr len in
      fun st ->
        tick st 1;
        let dbase = get st dst and sbase = get st src in
        let dlo = dbase + doff st and slo = sbase + soff st in
        let n = len st in
        if n > 0 then begin
          tick st (1 + (n / 8));
          let checked =
            if st.enabled then
              match st.decisions.(site) with
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
    | For { loop; idx; lo; hi; body } ->
      let lo = expr lo and hi = expr hi and body = block body in
      fun st ->
        tick st 1;
        let lo = lo st in
        let hi = hi st in
        let frame = enter_caches st st.loop_caches.(loop) in
        if lo < hi && st.enabled then run_regions st st.loop_pre.(loop);
        let i = ref lo in
        (try
           while !i < hi do
             tick st 1;
             set st idx !i;
             body st;
             incr i
           done;
           exit_caches st frame
         with e ->
           exit_caches st frame;
           raise e)
    | While { loop; cond = c; body } ->
      let c = cond c and body = block body in
      fun st ->
        tick st 1;
        let frame = enter_caches st st.loop_caches.(loop) in
        (try
           while c st do
             tick st 1;
             body st
           done;
           exit_caches st frame
         with e ->
           exit_caches st frame;
           raise e)
    | If { cond = c; then_; else_ } ->
      let c = cond c and then_ = block then_ and else_ = block else_ in
      fun st ->
        tick st 1;
        if c st then then_ st else else_ st
    | Call { callee; name; _ } when callee < 0 ->
      fun st ->
        tick st 1;
        failwith ("Interp: unknown function " ^ name)
    | Call { dst; callee; name; args } ->
      let args = Array.map expr args in
      fun st ->
        tick st 1;
        call st funcs.(callee) ~dst ~name args
    | Return None ->
      fun st ->
        tick st 1;
        st.ret <- 0;
        raise Returned
    | Return (Some e) ->
      let f = expr e in
      fun st ->
        tick st 1;
        st.ret <- f st;
        raise Returned
  and block stmts =
    match Array.map stmt stmts with
    | [||] -> fun _ -> ()
    | [| s |] -> s
    | [| s1; s2 |] ->
      fun st ->
        s1 st;
        s2 st
    | code ->
      fun st ->
        for k = 0 to Array.length code - 1 do
          (Array.unsafe_get code k) st
        done
  in
  block

(* {1 The compiled program}

   What stays of a program once compiled: its scopes (for plan regions and
   [final_env]), its sites and loops (for plan resolution) and its code. *)

type program = {
  main : scope;
  globals : (int * int) array;  (** slot, byte size *)
  body : code;
  name_ids : (string, int) Hashtbl.t;  (** every variable name, interned *)
  sites : site array;
  loops : site array;
}

let compile_program (p : Ast.program) =
  let name_ids = Hashtbl.create 64 in
  let intern v =
    match Hashtbl.find_opt name_ids v with
    | Some k -> k
    | None ->
      let k = Hashtbl.length name_ids in
      Hashtbl.add name_ids v k;
      k
  in
  let sites = ref [] and n_sites = ref 0 in
  let loops = ref [] and n_loops = ref 0 in
  let add_site scope id =
    sites := { id; scope } :: !sites;
    incr n_sites;
    !n_sites - 1
  in
  let add_loop scope id =
    loops := { id; scope } :: !loops;
    incr n_loops;
    !n_loops - 1
  in
  let fn_index = Hashtbl.create 8 in
  List.iteri
    (fun k (f : Ast.func) -> Hashtbl.replace fn_index f.Ast.fn_name k)
    p.Ast.funcs;
  let slot scope v =
    match Hashtbl.find_opt scope.slot_of v with
    | Some s -> s
    | None ->
      let s = Hashtbl.length scope.slot_of in
      Hashtbl.add scope.slot_of v s;
      ignore (intern v);
      s
  in
  let rec expr scope (e : Ast.expr) =
    match e with
    | Ast.Int n -> Int n
    | Ast.Var v -> Var (slot scope v)
    | Ast.Bin (op, a, b) ->
      let a = expr scope a in
      Bin (op, a, expr scope b)
    | Ast.Cmp (op, a, b) ->
      let a = expr scope a in
      Cmp (op, a, expr scope b)
    | Ast.Load acc -> Load (access scope acc)
  and access scope (acc : Ast.access) =
    let site = add_site scope acc.Ast.acc_id in
    let base = Var (slot scope acc.Ast.base) in
    {
      site;
      base;
      base_id = intern acc.Ast.base;
      index = expr scope acc.Ast.index;
      scale = acc.Ast.scale;
      disp = acc.Ast.disp;
      width = Ast.bytes_of_width acc.Ast.width;
    }
  in
  let rec block scope stmts = Array.of_list (List.map (stmt scope) stmts)
  and stmt scope (s : Ast.stmt) =
    match s with
    | Ast.Assign (v, e) ->
      let v = slot scope v in
      Assign (v, expr scope e)
    | Ast.Store (acc, e) ->
      let acc = access scope acc in
      Store (acc, expr scope e)
    | Ast.Malloc (v, e) ->
      let v = slot scope v in
      Malloc (v, expr scope e)
    | Ast.Alloca (v, e) ->
      let v = slot scope v in
      Alloca (v, expr scope e)
    | Ast.Free e -> Free (expr scope e)
    | Ast.Memset { mem_id; dst; doff; len; value } ->
      let site = add_site scope mem_id in
      let dst = slot scope dst in
      let doff = expr scope doff in
      let len = expr scope len in
      Memset { site; dst; doff; len; value = expr scope value }
    | Ast.Memcpy { mem_id; dst; doff; src; soff; len } ->
      let site = add_site scope mem_id in
      let dst = slot scope dst in
      let doff = expr scope doff in
      let src = slot scope src in
      let soff = expr scope soff in
      Memcpy { site; dst; doff; src; soff; len = expr scope len }
    | Ast.For { loop_id; idx; lo; hi; body } ->
      let loop = add_loop scope loop_id in
      let idx = slot scope idx in
      let lo = expr scope lo in
      let hi = expr scope hi in
      For { loop; idx; lo; hi; body = block scope body }
    | Ast.While { loop_id; cond; body } ->
      let loop = add_loop scope loop_id in
      let cond = expr scope cond in
      While { loop; cond; body = block scope body }
    | Ast.If { cond; then_; else_ } ->
      let cond = expr scope cond in
      let then_ = block scope then_ in
      If { cond; then_; else_ = block scope else_ }
    | Ast.Call { dst; callee; args } ->
      let dst = match dst with Some v -> slot scope v | None -> -1 in
      let callee_index =
        match Hashtbl.find_opt fn_index callee with Some k -> k | None -> -1
      in
      Call
        {
          dst;
          callee = callee_index;
          name = callee;
          args = Array.of_list (List.map (expr scope) args);
        }
    | Ast.Return e -> Return (Option.map (expr scope) e)
  in
  let new_scope () = { slot_of = Hashtbl.create 16; names = [||] } in
  let seal scope =
    let names = Array.make (Hashtbl.length scope.slot_of) "" in
    Hashtbl.iter (fun v s -> names.(s) <- v) scope.slot_of;
    scope.names <- names
  in
  let main = new_scope () in
  let globals =
    Array.of_list
      (List.map (fun (v, size) -> (slot main v, size)) p.Ast.globals)
  in
  let body = block main p.Ast.body in
  seal main;
  let trees =
    Array.of_list
      (List.map
         (fun (f : Ast.func) ->
           let scope = new_scope () in
           let params = Array.of_list (List.map (slot scope) f.Ast.fn_params) in
           let f_body = block scope f.Ast.fn_body in
           seal scope;
           (scope, params, f_body))
         p.Ast.funcs)
  in
  let funcs =
    Array.map (fun (f_scope, params, _) -> { f_scope; params; f_body = ignore }) trees
  in
  let compile = compile_block funcs in
  Array.iteri
    (fun k (_, _, tree) -> funcs.(k) <- { (funcs.(k)) with f_body = compile tree })
    trees;
  {
    main;
    globals;
    body = compile body;
    name_ids;
    sites = Array.of_list (List.rev !sites);
    loops = Array.of_list (List.rev !loops);
  }

(* {1 The resolved plan}

   What a plan says about each site of one program, as arrays: built on the
   first run of a (program, plan) pair and kept on the plan until a [Plan]
   mutator resets it. *)

type resolved = {
  source : Ast.program;  (** the program these arrays resolve *)
  prog : program;
  decisions : Plan.decision array;  (** per decision site *)
  stmt_pre : code array array;  (** per decision site *)
  loop_pre : code array array;  (** per loop site *)
  loop_caches : loop_caches array;  (** per loop site *)
}

type Plan.memo += Resolved of resolved

(* A plan region is resolved in the scope of its site without adding slots
   (the program's compiled form is shared by every plan): a name the scope
   never mentions can never be bound there, so it reads as [Unbound]. A
   load in a region gets a site past the program's own, one per (id,
   scope). *)
let resolve_plan (p : program) source (plan : Plan.t) =
  let extra = Queue.create () and seen = ref [] in
  let extra_site scope id =
    match List.find_opt (fun (s, _) -> s.id = id && s.scope == scope) !seen with
    | Some (_, k) -> k
    | None ->
      let k = Array.length p.sites + List.length !seen in
      seen := ({ id; scope }, k) :: !seen;
      Queue.add { id; scope } extra;
      k
  in
  let var scope v =
    match Hashtbl.find_opt scope.slot_of v with
    | Some s -> Var s
    | None -> Unbound v
  in
  let rec expr scope (e : Ast.expr) =
    match e with
    | Ast.Int n -> Int n
    | Ast.Var v -> var scope v
    | Ast.Bin (op, a, b) -> Bin (op, expr scope a, expr scope b)
    | Ast.Cmp (op, a, b) -> Cmp (op, expr scope a, expr scope b)
    | Ast.Load acc ->
      Load
        {
          site = extra_site scope acc.Ast.acc_id;
          base = var scope acc.Ast.base;
          (* a base outside the scope fails in [address], before any cache
             lookup *)
          base_id =
            Option.value ~default:(-2) (Hashtbl.find_opt p.name_ids acc.Ast.base);
          index = expr scope acc.Ast.index;
          scale = acc.Ast.scale;
          disp = acc.Ast.disp;
          width = Ast.bytes_of_width acc.Ast.width;
        }
  in
  let regions scope (rs : Plan.region list) =
    Array.of_list
      (List.map
         (fun (r : Plan.region) ->
           region (var scope r.Plan.rg_base) (expr scope r.Plan.rg_lo)
             (expr scope r.Plan.rg_hi))
         rs)
  in
  let caches { id; scope } =
    match Plan.caches_of plan id with
    | [] -> no_caches
    | vars ->
      (* The tree walk flushed in the [Hashtbl.iter] order of a table sized
         for [vars] holding the ones bound at loop entry. A subset iterates
         in the order of the whole list's table, so rank the whole list. *)
      let table = Hashtbl.create (List.length vars) in
      List.iter (fun v -> Hashtbl.replace table v ()) vars;
      (* a variable the scope never mentions is never bound at loop entry *)
      let kept = List.filter (Hashtbl.mem scope.slot_of) vars in
      let index = Hashtbl.create 8 in
      List.iteri (fun k v -> Hashtbl.replace index v k) kept;
      let flush = ref [] in
      Hashtbl.iter
        (fun v () ->
          Option.iter (fun k -> flush := k :: !flush) (Hashtbl.find_opt index v))
        table;
      {
        c_slots = Array.of_list (List.map (Hashtbl.find scope.slot_of) kept);
        c_names = Array.of_list (List.map (Hashtbl.find p.name_ids) kept);
        c_flush = Array.of_list (List.rev !flush);
      }
  in
  let site_pre { id; scope } = regions scope (Plan.stmt_pre_of plan id) in
  let stmt_pre = Array.map site_pre p.sites in
  let loop_pre =
    Array.map (fun { id; scope } -> regions scope (Plan.loop_pre_of plan id)) p.loops
  in
  let loop_caches = Array.map caches p.loops in
  (* extra sites, whose own pre-regions may add further ones *)
  let extra_sites = ref [] and extra_pre = ref [] in
  while not (Queue.is_empty extra) do
    let s = Queue.pop extra in
    extra_sites := s :: !extra_sites;
    extra_pre := site_pre s :: !extra_pre
  done;
  let sites = Array.append p.sites (Array.of_list (List.rev !extra_sites)) in
  {
    source;
    prog = p;
    decisions = Array.map (fun s -> Plan.decision_of plan s.id) sites;
    stmt_pre = Array.append stmt_pre (Array.of_list (List.rev !extra_pre));
    loop_pre;
    loop_caches;
  }

(* The compiled programs of this domain, held only while their program is
   alive: [sweep --jobs] interprets in worker domains, and every plan of
   one program shares its compiled form. *)
module Programs = Ephemeron.K1.Make (struct
  type t = Ast.program

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let programs = Domain.DLS.new_key (fun () -> Programs.create 16)

let program_of source =
  let table = Domain.DLS.get programs in
  match Programs.find_opt table source with
  | Some p -> p
  | None ->
    let p = compile_program source in
    Programs.replace table source p;
    p

let program_words source = Obj.reachable_words (Obj.repr (program_of source))

let resolve (plan : Plan.t) source =
  match plan.Plan.memo with
  | Resolved r when r.source == source -> r
  | _ ->
    let r = resolve_plan (program_of source) source plan in
    plan.Plan.memo <- Resolved r;
    r

(* {1 Execution} *)

let run ?(fuel = 50_000_000) (san : San.t) plan (prog : Ast.program) =
  let r = resolve plan prog in
  let main = r.prog.main in
  let n = Array.length main.names in
  let stats =
    { x_plain = 0; x_plain_fast = 0; x_cached = 0; x_eliminated = 0; x_unchecked = 0 }
  in
  let st =
    {
      san;
      decisions = r.decisions;
      stmt_pre = r.stmt_pre;
      loop_pre = r.loop_pre;
      loop_caches = r.loop_caches;
      enabled = plan.Plan.enabled;
      use_anchor = plan.Plan.use_anchor;
      arena = Memsim.Heap.arena san.San.heap;
      stats;
      fuel;
      depth = 0;
      vals = Array.make n 0;
      bound = Bytes.make n '\000';
      slot_names = main.names;
      allocas = [];
      reports_rev = [];
      cache_frames = [];
      ret = 0;
    }
  in
  let crashed = ref false and oom = ref false and starved = ref false in
  (* globals come to life (and get their redzones) before main runs *)
  (try
     Array.iter
       (fun (slot, size) ->
         let obj = san.San.malloc ~kind:Memsim.Memobj.Global size in
         set st slot obj.Memsim.Memobj.base)
       r.prog.globals
   with Out_of_memory -> oom := true);
  (try if not !oom then r.prog.body st with
  | Crash -> crashed := true
  | Oom -> oom := true
  | Fuel -> starved := true
  | Returned -> () (* return from main ends the program *));
  (* main's frame dies with the program *)
  (try List.iter (fun base -> ignore (record st (san.San.free base))) st.allocas
   with Crash | Oom | Fuel -> ());
  let final_env = ref [] in
  for s = n - 1 downto 0 do
    if is_bound st s then final_env := (main.names.(s), st.vals.(s)) :: !final_env
  done;
  {
    reports = List.rev st.reports_rev;
    ops = fuel - st.fuel;
    stats = st.stats;
    crashed = !crashed;
    out_of_memory = !oom;
    fuel_exhausted = !starved;
    final_env = !final_env;
  }

let var outcome name = List.assoc name outcome.final_env
