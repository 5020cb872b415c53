module Rng = Giantsan_util.Rng
module Heap = Giantsan_memsim.Heap
module Memobj = Giantsan_memsim.Memobj
module Shadow_mem = Giantsan_shadow.Shadow_mem
module State_code = Giantsan_core.State_code
module Folding = Giantsan_core.Folding
module San = Giantsan_sanitizer.Sanitizer
module Report = Giantsan_sanitizer.Report
module Selfcheck = Giantsan_chaos.Selfcheck
module Fault = Giantsan_chaos.Fault
module Backend = Giantsan_policy.Backend
module Pac = Giantsan_pac.Pac
module T = Giantsan_telemetry

type state = Healthy | Breached | Degraded | Quarantined

let state_name = function
  | Healthy -> "healthy"
  | Breached -> "breached"
  | Degraded -> "degraded"
  | Quarantined -> "quarantined"

type config = {
  heap : Heap.config;
  backend : Backend.id;
  virtual_clock : bool;
  window_ns : int;
  windows : int;
  recorder_cap : int;
  queue_cap : int;
}

let default_config =
  {
    heap = { Heap.arena_size = 256 * 1024; redzone = 16; quarantine_budget = 16 * 1024 };
    backend = Backend.Giantsan;
    virtual_clock = true;
    (* one virtual op costs ~30-150 ns, a tick serves ~32 ops: a 10 us
       window closes every ~7 ticks, so a default run exercises the
       watchdog several times *)
    window_ns = 10_000;
    windows = 8;
    recorder_cap = 64;
    queue_cap = 256;
  }

type request =
  | R_alloc of { slot : int; size : int }
  | R_free of { slot : int }
  | R_access of { slot : int; off : int; width : int; oob : bool }
  | R_region of { slot : int; off : int; len : int }

let n_slots = 16

type t = {
  t_id : int;
  cfg : config;
  rng : Rng.t;  (* request contents + latency jitter, one stream *)
  arrival_rng : Rng.t;  (* arrival process, drawn by the control plane *)
  mutable backend : Backend.id;
  mutable san : San.t;
  mutable plane : Backend.plane;
  clock : T.Clock.t;
  lat_total : T.Latency.t;
  lat_span : T.Latency.t;  (* since the last watchdog poll *)
  win : T.Window.t;
  recorder : T.Event.t T.Ring.t;
  slots : (int * int) option array;  (* slot -> (base, size) *)
  queue : request Queue.t;
  mutable state : state;
  mutable breach_streak : int;
  mutable ops : int;
  mutable errors : int;
  mutable span_errors : int;
  mutable span_ops : int;
  mutable shed : int;
  mutable breaches : int;
  mutable rec_seq : int;  (* recorder sequence, lifetime *)
  mutable lat_span_mark : int;  (* windows closed at the last watchdog poll *)
  mutable misfold : Folding.fault option;
  t_pac_key : int;  (* per-tenant PA key, stable across repartitions *)
}

(* Each tenant signs under its own PA key, derived from (seed, id) with
   the same odd-constant mixing the request streams use. A signature
   table forged under one tenant's key never authenticates under
   another's, and [repartition] reuses the key so a tenant downshifted
   away from PAC and later upshifted back keeps its signing identity. *)
let derive_pac_key ~seed ~id =
  (Pac.default_key lxor (seed * 0x9E3779B1) lxor ((id + 1) * 0x85EBCA77))
  land max_int

let create ~id ~seed (config : config) =
  let pac_key = derive_pac_key ~seed ~id in
  let san, plane = Backend.create_exposed ~pac_key config.backend config.heap in
  {
    t_id = id;
    cfg = config;
    (* distinct derived seeds per stream so the arrival process (drawn by
       the serial control plane) and the request contents (drawn partly on
       worker domains) never share a cursor *)
    rng = Rng.create ((seed * 2_147_483_629) + (id * 2) + 1);
    arrival_rng = Rng.create ((seed * 1_000_003) + (id * 2));
    backend = config.backend;
    san;
    plane;
    clock =
      (if config.virtual_clock then T.Clock.virtual_ () else T.Clock.monotonic ());
    lat_total = T.Latency.create (Printf.sprintf "tenant-%d" id);
    lat_span = T.Latency.create (Printf.sprintf "tenant-%d-span" id);
    win = T.Window.create ~window_ns:config.window_ns ~windows:config.windows;
    recorder = T.Ring.create ~capacity:(max 1 config.recorder_cap);
    slots = Array.make n_slots None;
    queue = Queue.create ();
    state = Healthy;
    breach_streak = 0;
    ops = 0;
    errors = 0;
    span_errors = 0;
    span_ops = 0;
    shed = 0;
    breaches = 0;
    rec_seq = 0;
    lat_span_mark = 0;
    misfold = None;
    t_pac_key = pac_key;
  }

let id t = t.t_id
let pac_key t = t.t_pac_key
let backend t = t.backend
let state t = t.state
let set_state t s = t.state <- s
let now_ns t = T.Clock.now_ns t.clock
let ops t = t.ops
let errors t = t.errors
let shed t = t.shed
let breaches t = t.breaches
let breach_streak t = t.breach_streak
let set_breach_streak t n = t.breach_streak <- n
let queue_depth t = Queue.length t.queue
let latency t = t.lat_total
let rate t = T.Window.rate t.win
let windows_closed t = T.Window.closed t.win

let push_event t ev =
  T.Ring.push t.recorder ev;
  t.rec_seq <- t.rec_seq + 1

(* ------------------------------------------------------------------ *)
(* Request generation                                                  *)
(* ------------------------------------------------------------------ *)

(* One request from the stream. The occupancy snapshot used for the choice
   is the *queue-projected* one: pending allocs/frees are applied to a
   shadow occupancy bitmap so a burst of generated requests stays
   self-consistent even before any of them executes. *)
let gen_request t occ =
  let live = ref [] and free = ref [] in
  Array.iteri (fun i b -> if b then live := i :: !live else free := i :: !free) occ;
  let live = Array.of_list (List.rev !live) in
  let free = Array.of_list (List.rev !free) in
  let alloc () =
    let slot = free.(Rng.int t.rng (Array.length free)) in
    occ.(slot) <- true;
    R_alloc { slot; size = 16 + (8 * Rng.int t.rng 30) }
  in
  if Array.length live = 0 then alloc ()
  else if Array.length free > 0 && Rng.int t.rng 8 < 2 then alloc ()
  else begin
    let slot = live.(Rng.int t.rng (Array.length live)) in
    match Rng.int t.rng 16 with
    | 0 | 1 ->
      occ.(slot) <- false;
      R_free { slot }
    | 2 | 3 ->
      (* region op over a prefix of the object; length picked at execution
         time relative to the live size, offset here *)
      R_region { slot; off = 0; len = 1 + Rng.int t.rng 64 }
    | n ->
      let width = [| 1; 2; 4; 8 |].(Rng.int t.rng 4) in
      (* ~1/64 of accesses run off the end: the service's organic error
         traffic (drives the SLO error-rate axis) *)
      let oob = n = 15 && Rng.int t.rng 4 = 0 in
      R_access { slot; off = Rng.int t.rng 256; width; oob }
  end

let arrive t ~n =
  let occ = Array.map (fun s -> s <> None) t.slots in
  Queue.iter
    (fun r ->
      match r with
      | R_alloc { slot; _ } -> occ.(slot) <- true
      | R_free { slot } -> occ.(slot) <- false
      | _ -> ())
    t.queue;
  for _ = 1 to n do
    let req = gen_request t occ in
    if t.state = Quarantined || Queue.length t.queue >= t.cfg.queue_cap then
      t.shed <- t.shed + 1
    else Queue.add req t.queue
  done

let tick_arrivals t ~mean =
  let n = max 0 (mean - 2 + Rng.int t.arrival_rng 5) in
  arrive t ~n

(* ------------------------------------------------------------------ *)
(* Request execution + latency synthesis                               *)
(* ------------------------------------------------------------------ *)

(* Synthetic per-request cost (virtual-clock mode): a base cost per op
   kind plus the metadata traffic the sanitizer actually performed for
   this request (shadow loads/stores measured as deltas), plus seeded
   jitter with a rare heavy tail — the p999 the SLO watchdog guards. *)
let synth_latency t ~base_cost ~loads ~stores =
  let jitter = Rng.int t.rng 16 in
  let tail = if Rng.int t.rng 512 = 0 then 4096 + Rng.int t.rng 4096 else 0 in
  base_cost + (7 * loads) + (3 * stores) + jitter + tail

let note_report t reports report =
  match report with
  | None -> ()
  | Some (r : Report.t) ->
    t.errors <- t.errors + 1;
    t.span_errors <- t.span_errors + 1;
    reports := r :: !reports

let exec_request t req reports =
  match req with
  | R_alloc { slot; size } ->
    (match t.slots.(slot) with
    | Some (base, _) ->
      (* projection drift (e.g. after shed frees): recycle the slot *)
      note_report t reports (t.san.San.free base)
    | None -> ());
    let obj = t.san.San.malloc size in
    t.slots.(slot) <- Some (obj.Memobj.base, size);
    ("alloc", slot, size, 0, 140)
  | R_free { slot } -> (
    match t.slots.(slot) with
    | None -> ("free", slot, 0, 0, 30) (* request shed its target; no-op *)
    | Some (base, _) ->
      note_report t reports (t.san.San.free base);
      t.slots.(slot) <- None;
      ("free", slot, 0, 0, 90))
  | R_access { slot; off; width; oob } -> (
    match t.slots.(slot) with
    | None -> ("access", slot, off, width, 30)
    | Some (base, size) ->
      let off =
        if oob then size (* one past the end: redzone hit *)
        else if size >= width then off mod (size - width + 1)
        else 0
      in
      note_report t reports
        (t.san.San.access ~base ~addr:(base + off) ~width);
      ((if oob then "oob" else "access"), slot, off, width, 25))
  | R_region { slot; off = _; len } -> (
    match t.slots.(slot) with
    | None -> ("region", slot, 0, 0, 30)
    | Some (base, size) ->
      let len = 1 + (len mod max 1 size) in
      note_report t reports (t.san.San.check_region ~lo:base ~hi:(base + len));
      ("region", slot, 0, len, 40))

let serve_one t req =
  let reports = ref [] in
  let loads0 = t.san.San.shadow_loads () in
  let stores0 = t.san.San.shadow_stores () in
  let t0 = T.Clock.now_ns t.clock in
  let op, slot, arg, width, base_cost = exec_request t req reports in
  let latency =
    if T.Clock.is_virtual t.clock then
      synth_latency t ~base_cost
        ~loads:(t.san.San.shadow_loads () - loads0)
        ~stores:(t.san.San.shadow_stores () - stores0)
    else max 1 (T.Clock.now_ns t.clock - t0)
  in
  T.Clock.advance t.clock latency;
  let now = T.Clock.now_ns t.clock in
  t.ops <- t.ops + 1;
  t.span_ops <- t.span_ops + 1;
  T.Window.record t.win ~now_ns:now 1;
  T.Latency.observe t.lat_total latency;
  T.Latency.observe t.lat_span latency;
  push_event t
    (T.Event.Service_op
       { tenant = t.t_id; op; slot; arg; width; latency_ns = latency; t_ns = now });
  List.iter
    (fun (r : Report.t) ->
      push_event t
        (T.Event.Service_report
           {
             tenant = t.t_id;
             kind = Report.kind_name r.Report.kind;
             addr = r.Report.addr;
             t_ns = now;
           }))
    (List.rev !reports)

let run_quantum t ~max_ops =
  if t.state <> Quarantined then begin
    let budget = min max_ops (Queue.length t.queue) in
    let body () =
      for _ = 1 to budget do
        serve_one t (Queue.pop t.queue)
      done
    in
    (* re-arm the tenant's fault plan on whichever domain serves it *)
    match t.misfold with
    | None -> body ()
    | Some f -> Folding.with_fault (Some f) body
  end

(* ------------------------------------------------------------------ *)
(* Watchdog hooks                                                      *)
(* ------------------------------------------------------------------ *)

type window_stats = {
  ws_closed : int;
  ws_p999_ns : float;
  ws_error_rate : float;
  ws_ops_per_sec : float;
}

let poll_windows t =
  ignore (T.Window.roll t.win ~now_ns:(T.Clock.now_ns t.clock));
  let span = t.span_ops in
  if T.Window.closed t.win = 0 || t.lat_span_mark = T.Window.closed t.win then
    None
  else begin
    let closed = T.Window.closed t.win - t.lat_span_mark in
    t.lat_span_mark <- T.Window.closed t.win;
    let p999 = T.Latency.p999 t.lat_span in
    let err_rate =
      if span = 0 then 0.0 else float_of_int t.span_errors /. float_of_int span
    in
    let stats =
      {
        ws_closed = closed;
        ws_p999_ns = p999;
        ws_error_rate = err_rate;
        ws_ops_per_sec = T.Window.rate t.win;
      }
    in
    T.Latency.reset t.lat_span;
    t.span_errors <- 0;
    t.span_ops <- 0;
    Some stats
  end

let record_breach t (b : Slo.breach) =
  t.breaches <- t.breaches + 1;
  push_event t
    (T.Event.Slo_breach
       {
         tenant = t.t_id;
         slo = b.Slo.b_slo;
         value = b.Slo.b_value;
         limit = b.Slo.b_limit;
         t_ns = T.Clock.now_ns t.clock;
       })

let record_state t s =
  push_event t
    (T.Event.Tenant_state
       { tenant = t.t_id; state = state_name s; t_ns = T.Clock.now_ns t.clock })

let record_fault t ~detail =
  push_event t
    (T.Event.Tenant_fault
       { tenant = t.t_id; detail; t_ns = T.Clock.now_ns t.clock })

(* ------------------------------------------------------------------ *)
(* Chaos integration                                                   *)
(* ------------------------------------------------------------------ *)

(* The shadow faults of the chaos plane translate per metadata plane: the
   folded shadow takes them literally; the PAC signature table maps byte
   corruption to a tag forge and a stale-free plant to a stolen strip; a
   plane-less backend absorbs the fault (nothing to corrupt — which is
   itself a finding the chaos report records as "absorbed"). *)
let plant_shadow_fault t shadow fault =
  match fault with
  | Fault.Bit_flip { pick; mask } ->
    let seg = pick mod Shadow_mem.segments shadow in
    Shadow_mem.poke shadow seg
      (Shadow_mem.peek shadow seg lxor (mask land 0xff));
    Printf.sprintf "bit-flip x%02x at seg %d" (mask land 0xff) seg
  | Fault.Stale_free { pick } ->
    let seg = pick mod Shadow_mem.segments shadow in
    Shadow_mem.poke shadow seg State_code.freed;
    Printf.sprintf "stale free code at seg %d" seg
  | Fault.Overclaim_code { pick } ->
    let seg = pick mod Shadow_mem.segments shadow in
    Shadow_mem.poke shadow seg State_code.good;
    Printf.sprintf "overclaim at seg %d" seg
  | Fault.Misfold { degree } ->
    t.misfold <- Some (Folding.Overstate_last degree);
    Printf.sprintf "misfold armed d=%d" degree
  | Fault.Window_trim { pick } -> (
    match Shadow_mem.chaos_trim_window shadow ~pick with
    | Some seg ->
      Printf.sprintf "window trim absorbed (seg %d trimmed, no restore)" seg
    | None -> "window trim absorbed (window empty)")

let plant_sig_fault sigs fault =
  let forge ~pick ~mask =
    match Pac.forge sigs ~pick ~mask with
    | Some base -> Printf.sprintf "tag-forge at base %d" base
    | None -> "tag-forge absorbed (no live signatures)"
  in
  match fault with
  | Fault.Bit_flip { pick; mask } -> forge ~pick ~mask
  | Fault.Overclaim_code { pick } -> forge ~pick ~mask:(pick lor 1)
  | Fault.Stale_free { pick } -> (
    match Pac.drop sigs ~pick with
    | Some base -> Printf.sprintf "stolen strip at base %d" base
    | None -> "stolen strip absorbed (no live signatures)")
  | Fault.Misfold { degree } ->
    Printf.sprintf "misfold absorbed (no folded shadow) d=%d" degree
  | Fault.Window_trim { pick } ->
    Printf.sprintf "window trim absorbed (no dirty window) p=%d" pick

let plant_fault t fault =
  match t.plane with
  | Backend.Shadow shadow -> plant_shadow_fault t shadow fault
  | Backend.Sigs sigs -> plant_sig_fault sigs fault
  | Backend.Plain -> "fault absorbed (no metadata plane)"

(* The PAC plane has no shadow to diff against the oracle; instead the
   audit recomputes every stored PAC (catches forges) and then sweeps the
   slot table checking every live slot still holds a signature (catches
   stolen strips, which Pac.audit alone cannot see). *)
let audit t =
  match t.plane with
  | Backend.Shadow shadow -> (
    match Selfcheck.run ~heap:t.san.San.heap ~shadow with
    | [] -> None
    | m :: _ -> Some (Selfcheck.mismatch_to_string m))
  | Backend.Sigs sigs -> (
    match Pac.audit sigs with
    | Some _ as detail -> detail
    | None ->
      let missing = ref None in
      Array.iter
        (fun slot ->
          match slot with
          | Some (base, _) when !missing = None && not (Pac.has sigs ~base) ->
            missing := Some (Printf.sprintf "live slot base %d unsigned" base)
          | _ -> ())
        t.slots;
      !missing)
  | Backend.Plain -> None

let repartition t ~backend =
  (* the queued requests were generated against the old arena's slots;
     shed them (counted) instead of serving them against a heap that no
     longer holds those objects *)
  t.shed <- t.shed + Queue.length t.queue;
  Queue.clear t.queue;
  Array.fill t.slots 0 n_slots None;
  t.misfold <- None;
  t.breach_streak <- 0;
  let san, plane =
    Backend.create_exposed ~pac_key:t.t_pac_key backend t.cfg.heap
  in
  t.backend <- backend;
  t.san <- san;
  t.plane <- plane;
  push_event t
    (T.Event.Tenant_backend
       {
         tenant = t.t_id;
         backend = Backend.name backend;
         t_ns = T.Clock.now_ns t.clock;
       })

let dump t =
  T.Export.ndjson_lines (T.Ring.to_seq_list t.recorder)
