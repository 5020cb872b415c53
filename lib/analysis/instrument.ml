module Ast = Giantsan_ir.Ast

type mode =
  | Native
  | Asan
  | Asanmm
  | Lfp
  | Pac
  | Giantsan
  | Giantsan_cache_only
  | Giantsan_elim_only

let mode_name = function
  | Native -> "Native"
  | Asan -> "ASan"
  | Asanmm -> "ASan--"
  | Lfp -> "LFP"
  | Pac -> "PAC"
  | Giantsan -> "GiantSan"
  | Giantsan_cache_only -> "GiantSan-CacheOnly"
  | Giantsan_elim_only -> "GiantSan-ElimOnly"

(* Capability matrix: which static optimizations each tool can express. *)
type caps = {
  anchor : bool;
  cache : bool;
  promote_affine : bool;
  promote_invariant : bool;
  promote_endpoints : bool;
      (** ASan--'s bounded-loop optimization: instead of one O(1) region
          check (which instruction-level tools lack), check only the first
          and last accesses of a monotonic affine loop *)
  merge_span : bool;
  dedupe : bool;
}

let caps_of = function
  | Native | Asan ->
    {
      anchor = false;
      cache = false;
      promote_affine = false;
      promote_invariant = false;
      promote_endpoints = false;
      merge_span = false;
      dedupe = false;
    }
  | Asanmm ->
    {
      anchor = false;
      cache = false;
      promote_affine = false;
      promote_invariant = true;
      promote_endpoints = true;
      merge_span = false;
      dedupe = true;
    }
  | Lfp | Pac ->
    (* both derive checks from the pointer's provenance (LFP its bound
       table, PAC its signature), so both want the anchor threaded
       through; neither instruments loops or merges spans *)
    {
      anchor = true;
      cache = false;
      promote_affine = false;
      promote_invariant = false;
      promote_endpoints = false;
      merge_span = false;
      dedupe = false;
    }
  | Giantsan ->
    {
      anchor = true;
      cache = true;
      promote_affine = true;
      promote_invariant = true;
      promote_endpoints = false;
      merge_span = true;
      dedupe = true;
    }
  | Giantsan_cache_only ->
    {
      anchor = true;
      cache = true;
      promote_affine = false;
      promote_invariant = false;
      promote_endpoints = false;
      merge_span = false;
      dedupe = false;
    }
  | Giantsan_elim_only ->
    {
      anchor = true;
      cache = false;
      promote_affine = true;
      promote_invariant = true;
      promote_endpoints = false;
      merge_span = true;
      dedupe = true;
    }

type loop_ctx = {
  l_id : int;
  l_kind : [ `For of string * Ast.expr * Ast.expr | `While ];
      (** for-loops carry (idx, lo, hi) *)
  l_assigned : string list;  (** variables the loop body may write, + idx *)
  l_has_free : bool;
}

(* Anything that could deallocate or escape the loop mid-iteration makes
   footprint promotion unsound: frees (obviously), calls (the callee may
   free — the analysis is intra-procedural), and returns (later iterations
   may never run, so their footprint must not be checked up front). *)
let rec block_has_free stmts =
  List.exists
    (fun s ->
      match s with
      | Ast.Free _ | Ast.Call _ | Ast.Return _ -> true
      | Ast.Malloc _ | Ast.Alloca _ | Ast.Assign _ | Ast.Store _ | Ast.Memset _
      | Ast.Memcpy _ ->
        false
      | Ast.For { body; _ } | Ast.While { body; _ } -> block_has_free body
      | Ast.If { then_; else_; _ } ->
        block_has_free then_ || block_has_free else_)
    stmts

let expr_plus a b = Affine.simplify (Ast.Bin (Ast.Add, a, b))
let expr_mul k e = Affine.simplify (Ast.Bin (Ast.Mul, Ast.Int k, e))

(* The promoted footprint of [a*idx + rest] for idx in [lo, hi), access
   width w: a region [min_off, max_off + w) in byte offsets off the base. *)
let promoted_region (acc : Ast.access) ~a ~rest ~lo ~hi =
  let w = Ast.bytes_of_width acc.Ast.width in
  let at_lo = expr_plus (expr_mul a lo) rest in
  let at_last =
    expr_plus (expr_mul a (Affine.simplify (Ast.Bin (Ast.Sub, hi, Ast.Int 1)))) rest
  in
  let rg_lo, rg_last = if a >= 0 then (at_lo, at_last) else (at_last, at_lo) in
  {
    Plan.rg_base = acc.Ast.base;
    rg_lo;
    rg_hi = expr_plus rg_last (Ast.Int w);
  }

(* Two point checks at the loop's first and last accesses — all an
   instruction-level tool (ASan--) can hoist for a monotonic affine loop. *)
let endpoint_regions (acc : Ast.access) ~a ~rest ~lo ~hi =
  let w = Ast.bytes_of_width acc.Ast.width in
  let at_lo = expr_plus (expr_mul a lo) rest in
  let at_last =
    expr_plus (expr_mul a (Affine.simplify (Ast.Bin (Ast.Sub, hi, Ast.Int 1)))) rest
  in
  [
    { Plan.rg_base = acc.Ast.base; rg_lo = at_lo; rg_hi = expr_plus at_lo (Ast.Int w) };
    {
      Plan.rg_base = acc.Ast.base;
      rg_lo = at_last;
      rg_hi = expr_plus at_last (Ast.Int w);
    };
  ]

(* Try check-in-loop promotion of [acc] against the innermost loop.
   Returns the preheader checks replacing the per-iteration one. *)
let try_promote caps ~is_store (loop : loop_ctx) (acc : Ast.access) =
  match loop.l_kind with
  | `While -> None
  | `For (idx, lo, hi) ->
    if loop.l_has_free then None
    else if List.mem acc.Ast.base loop.l_assigned then None
    else if
      not
        (Affine.is_invariant ~assigned:loop.l_assigned lo
        && Affine.is_invariant ~assigned:loop.l_assigned hi)
    then None
    else (
      match Affine.byte_offset ~idx acc with
      | None -> None
      | Some (a, rest) ->
        if not (Affine.is_invariant ~assigned:loop.l_assigned rest) then None
        else if a = 0 && (caps.promote_affine || caps.promote_invariant) then
          Some [ promoted_region acc ~a ~rest ~lo ~hi ]
        else if a <> 0 && caps.promote_affine then
          Some [ promoted_region acc ~a ~rest ~lo ~hi ]
        else if a <> 0 && caps.promote_endpoints && not is_store then
          (* ASan-- only trusts first+last elision for reads; stores keep
             their per-iteration checks *)
          Some (endpoint_regions acc ~a ~rest ~lo ~hi)
        else None)

(* Straight-line window for aliased-check merging: per base variable, the
   const-offset accesses seen since the last barrier. *)
type window_entry = { w_acc : int; w_off : int; w_width : int }

let const_byte_offset (acc : Ast.access) =
  Option.map
    (fun i -> (i * acc.Ast.scale) + acc.Ast.disp)
    (Affine.const_eval acc.Ast.index)

let plan mode prog =
  let caps = caps_of mode in
  let enabled = mode <> Native in
  let t =
    Plan.create ~mode_name:(mode_name mode) ~enabled ~use_anchor:caps.anchor
  in
  if enabled then begin
    (* Everything starts instruction-level (Figure 8b)... *)
    List.iter
      (fun (acc : Ast.access) -> Plan.set_decision t acc.Ast.acc_id Plan.Plain)
      (Ast.program_accesses prog);
    (* ... then the analyses upgrade or remove checks (Figure 8c). *)
    let rec process_block ~loops ~under_if stmts =
      let window : (string, window_entry list ref) Hashtbl.t =
        Hashtbl.create 8
      in
      let flush_window () =
        Hashtbl.iter
          (fun base entries ->
            let entries = List.rev !entries in
            if caps.merge_span && List.length entries >= 2 then begin
              let lo =
                List.fold_left (fun m e -> Int.min m e.w_off) max_int entries
              in
              let hi =
                List.fold_left
                  (fun m e -> Int.max m (e.w_off + e.w_width))
                  min_int entries
              in
              let first = (List.hd entries).w_acc in
              Plan.add_stmt_pre t first
                { Plan.rg_base = base; rg_lo = Ast.Int lo; rg_hi = Ast.Int hi };
              List.iter
                (fun e -> Plan.set_decision t e.w_acc Plan.Eliminated)
                entries
            end
            else if caps.dedupe then begin
              (* keep the first check at each (offset, covering width);
                 drop later dominated duplicates *)
              let seen : (int, int) Hashtbl.t = Hashtbl.create 4 in
              List.iter
                (fun e ->
                  match Hashtbl.find_opt seen e.w_off with
                  | Some w when e.w_width <= w ->
                    Plan.set_decision t e.w_acc Plan.Eliminated
                  | _ -> Hashtbl.replace seen e.w_off e.w_width)
                entries
            end)
          window;
        Hashtbl.reset window
      in
      (* straight-line copy propagation: after [q = p], accesses through q
         must-alias accesses through p and may merge with them. [copies]
         maps an alias to its root; window groups are keyed by roots. *)
      let copies : (string, string) Hashtbl.t = Hashtbl.create 4 in
      let resolve v =
        match Hashtbl.find_opt copies v with Some r -> r | None -> v
      in
      let barrier_var v =
        (* v stops being an alias of anything *)
        Hashtbl.remove copies v;
        (* and if v was a root, its aliases and window group die with it *)
        let stale =
          Hashtbl.fold (fun a r acc -> if r = v then a :: acc else acc) copies []
        in
        List.iter (Hashtbl.remove copies) stale;
        Hashtbl.remove window v
      in
      let note_copy v w =
        barrier_var v;
        let root = resolve w in
        if root <> v then Hashtbl.replace copies v root
      in
      let note_access ?(is_store = false) (acc : Ast.access) =
        let acc = { acc with Ast.base = resolve acc.Ast.base } in
        (* First: loop-level decision. *)
        (match loops with
        | [] -> ()
        | innermost :: _ -> (
          let promoted =
            if under_if then None
            else try_promote caps ~is_store innermost acc
          in
          match promoted with
          | Some regions ->
            Plan.set_decision t acc.Ast.acc_id Plan.Eliminated;
            List.iter (Plan.add_loop_pre t innermost.l_id) regions
          | None ->
            if caps.cache && not (List.mem acc.Ast.base innermost.l_assigned)
            then begin
              Plan.set_decision t acc.Ast.acc_id Plan.Cached;
              Plan.add_loop_cache t innermost.l_id acc.Ast.base
            end));
        (* Second: feed still-plain const-offset accesses to the window. *)
        if Plan.decision_of t acc.Ast.acc_id = Plan.Plain then
          match const_byte_offset acc with
          | Some off ->
            let entry =
              {
                w_acc = acc.Ast.acc_id;
                w_off = off;
                w_width = Ast.bytes_of_width acc.Ast.width;
              }
            in
            (match Hashtbl.find_opt window acc.Ast.base with
            | Some cell -> cell := entry :: !cell
            | None -> Hashtbl.add window acc.Ast.base (ref [ entry ]))
          | None -> ()
      in
      let note_expr e = List.iter note_access (Ast.expr_accesses e) in
      List.iter
        (fun stmt ->
          match stmt with
          | Ast.Assign (v, Ast.Var w) when v <> w ->
            (* a pointer copy: v must-aliases w from here on *)
            note_copy v w
          | Ast.Assign (v, e) ->
            note_expr e;
            barrier_var v
          | Ast.Store (acc, e) ->
            note_expr acc.Ast.index;
            note_access ~is_store:true acc;
            note_expr e
          | Ast.Malloc (v, e) | Ast.Alloca (v, e) ->
            note_expr e;
            barrier_var v
          | Ast.Free e ->
            note_expr e;
            flush_window ()
          | Ast.Call { dst; args; _ } ->
            List.iter note_expr args;
            (* the callee may free anything: merge across calls is unsafe *)
            flush_window ();
            Option.iter barrier_var dst
          | Ast.Return e ->
            Option.iter note_expr e;
            flush_window ()
          | Ast.Memset { doff; len; value; _ } ->
            note_expr doff;
            note_expr len;
            note_expr value;
            flush_window ()
          | Ast.Memcpy { doff; soff; len; _ } ->
            note_expr doff;
            note_expr soff;
            note_expr len;
            flush_window ()
          | Ast.For { loop_id; idx; lo; hi; body } ->
            note_expr lo;
            note_expr hi;
            flush_window ();
            let ctx =
              {
                l_id = loop_id;
                l_kind = `For (idx, lo, hi);
                l_assigned = idx :: Ast.assigned_vars body;
                l_has_free = block_has_free body;
              }
            in
            process_block ~loops:(ctx :: loops) ~under_if:false body
          | Ast.While { loop_id; cond; body } ->
            flush_window ();
            let ctx =
              {
                l_id = loop_id;
                l_kind = `While;
                l_assigned = Ast.assigned_vars body;
                l_has_free = block_has_free body;
              }
            in
            (* the condition is evaluated inside the loop *)
            List.iter
              (fun acc ->
                if
                  caps.cache
                  && not (List.mem acc.Ast.base ctx.l_assigned)
                then begin
                  Plan.set_decision t acc.Ast.acc_id Plan.Cached;
                  Plan.add_loop_cache t ctx.l_id acc.Ast.base
                end)
              (Ast.expr_accesses cond);
            process_block ~loops:(ctx :: loops) ~under_if:false body
          | Ast.If { cond; then_; else_ } ->
            note_expr cond;
            flush_window ();
            process_block ~loops ~under_if:true then_;
            process_block ~loops ~under_if:true else_)
        stmts;
      flush_window ()
    in
    (* intra-procedural: each function body is analysed on its own *)
    List.iter
      (fun (f : Ast.func) ->
        process_block ~loops:[] ~under_if:false f.Ast.fn_body)
      prog.Ast.funcs;
    process_block ~loops:[] ~under_if:false prog.Ast.body
  end;
  t
