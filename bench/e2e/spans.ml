(* Layer spans for the traced run, and the stopwatch every timed region uses.

   A span is opened around one call into a layer (an [Interp.run], a
   sanitizer check, a [restore], ...). Spans nest: a span's self time is
   its duration minus the durations of the spans directly inside it, so
   the self times of all spans in a timed region, plus what no span
   covers, add up to the region's time. Minor words are attributed the
   same way.

   Nothing here allocates once the module is initialised: the open-span
   stack, the per-layer totals and the span log are preallocated arrays,
   and the clock and the minor-word counter are read through unboxed
   externals. Sanitizer calls are traced by copying the [Sanitizer.t]
   record with timed closures ({!wrap}), so the library is untouched. *)

module San = Giantsan_sanitizer.Sanitizer

let now () = Int64.to_int (Monotonic_clock.now ())
let minor_words () = int_of_float (Gc.minor_words ())

type layer =
  | Specgen
  | Instrument
  | Create
  | Interp
  | Scenario
  | Restore
  | Access
  | Cached_access  (** [cached_access] and [flush_cache] *)
  | Check_region
  | Malloc
  | Free

let layers =
  [|
    Specgen;
    Instrument;
    Create;
    Interp;
    Scenario;
    Restore;
    Access;
    Cached_access;
    Check_region;
    Malloc;
    Free;
  |]

let n_layers = Array.length layers

let layer_index = function
  | Specgen -> 0
  | Instrument -> 1
  | Create -> 2
  | Interp -> 3
  | Scenario -> 4
  | Restore -> 5
  | Access -> 6
  | Cached_access -> 7
  | Check_region -> 8
  | Malloc -> 9
  | Free -> 10

let layer_name = function
  | Specgen -> "specgen"
  | Instrument -> "instrument"
  | Create -> "create"
  | Interp -> "interp"
  | Scenario -> "scenario"
  | Restore -> "restore"
  | Access -> "access"
  | Cached_access -> "cached_access"
  | Check_region -> "check_region"
  | Malloc -> "malloc"
  | Free -> "free"

(* A slot is one (owner, layer) pair; owners are backend indices, plus one
   for layers no backend owns (generation, planning). *)
let max_owners = 8
let n_slots = max_owners * n_layers
let slot ~owner layer = (owner * n_layers) + layer_index layer

let on = ref false
let timed = ref false
let batch = ref (-1)

(* Totals, in two banks: [bank_untimed] for spans outside any timed region
   (set-up: generation, planning, sanitizer construction) and [bank_timed]
   for spans inside one. *)
let bank_untimed = 0
let bank_timed = n_slots
let self_ns = Array.make (2 * n_slots) 0
let self_words = Array.make (2 * n_slots) 0
let calls = Array.make (2 * n_slots) 0
let nested = Array.make (2 * n_slots) 0
let top_level_timed = ref 0

let max_depth = 16
let st_slot = Array.make max_depth 0
let st_index = Array.make max_depth 0
let st_start = Array.make max_depth 0
let st_words = Array.make max_depth 0
let st_child_ns = Array.make max_depth 0
let st_child_words = Array.make max_depth 0
let st_children = Array.make max_depth 0
let depth = ref 0

(* The span log written out at exit: the first [log_cap] spans in full;
   the totals above keep counting past it. *)
let log_cap = 1 lsl 16
let log_slot = Array.make log_cap 0
let log_start = Array.make log_cap 0
let log_end = Array.make log_cap 0
let log_parent = Array.make log_cap 0
let log_batch = Array.make log_cap 0
let entered = ref 0

let enter s =
  if !on then begin
    let d = !depth in
    let i = !entered in
    if i < log_cap then begin
      log_slot.(i) <- s;
      log_parent.(i) <- (if d = 0 then -1 else st_index.(d - 1));
      log_batch.(i) <- !batch
    end;
    entered := i + 1;
    st_slot.(d) <- s;
    st_index.(d) <- i;
    st_child_ns.(d) <- 0;
    st_child_words.(d) <- 0;
    st_children.(d) <- 0;
    depth := d + 1;
    st_words.(d) <- minor_words ();
    (* the clock is read last on entry and first on exit, so the
       bookkeeping falls outside the span *)
    st_start.(d) <- now ()
  end

let leave () =
  if !on then begin
    let t = now () in
    let w = minor_words () in
    let d = !depth - 1 in
    depth := d;
    let dur = t - st_start.(d) and dw = w - st_words.(d) in
    let k = (if !timed then bank_timed else bank_untimed) + st_slot.(d) in
    self_ns.(k) <- self_ns.(k) + dur - st_child_ns.(d);
    self_words.(k) <- self_words.(k) + dw - st_child_words.(d);
    calls.(k) <- calls.(k) + 1;
    nested.(k) <- nested.(k) + st_children.(d);
    if d > 0 then begin
      st_child_ns.(d - 1) <- st_child_ns.(d - 1) + dur;
      st_child_words.(d - 1) <- st_child_words.(d - 1) + dw;
      st_children.(d - 1) <- st_children.(d - 1) + 1
    end
    else if !timed then incr top_level_timed;
    let i = st_index.(d) in
    if i < log_cap then begin
      log_start.(i) <- st_start.(d);
      log_end.(i) <- t
    end
  end

let calibration_owner = max_owners - 1
let calibration_direct = ref 0
let calibration_traced = ref 0
let calibration_calls = ref 0

(* Forget the totals of one bank (the log and the other bank stay). *)
let clear_bank bank =
  Array.fill self_ns bank n_slots 0;
  Array.fill self_words bank n_slots 0;
  Array.fill calls bank n_slots 0;
  Array.fill nested bank n_slots 0;
  if bank = bank_timed then top_level_timed := 0

let reset () =
  clear_bank bank_untimed;
  clear_bank bank_timed;
  depth := 0;
  entered := 0;
  batch := -1;
  calibration_direct := 0;
  calibration_traced := 0;
  calibration_calls := 0

(* {1 Stopwatch}

   Accumulates the time and minor words of the timed regions of one batch.
   Each region runs right after its own yardstick sample of [yard_iters]
   iterations, and its time is also accumulated rescaled to the
   yardstick's nominal speed ([norm]). While a region runs, spans land in
   the timed bank. *)

type stopwatch = {
  yard_iters : int;
  mutable ns : int;  (** raw *)
  mutable norm : int;  (** rescaled by [Yardstick.nominal_ps / yard] *)
  mutable words : int;
  mutable regions : int;
  mutable yard_ps : int;  (** sum over regions of ps per yardstick iteration *)
  mutable yard : int;  (** the current region's ps per yardstick iteration *)
  mutable t0 : int;
  mutable w0 : int;
}

(* With [yard_iters = 0] nothing is rescaled. *)
let stopwatch ~yard_iters =
  {
    yard_iters;
    ns = 0;
    norm = 0;
    words = 0;
    regions = 0;
    yard_ps = 0;
    yard = Yardstick.nominal_ps;
    t0 = 0;
    w0 = 0;
  }

(* ps per iteration of a yardstick sample of [iters] iterations *)
let yardstick iters =
  ignore (Sys.opaque_identity (Yardstick.warm ()));
  let t = now () in
  ignore (Sys.opaque_identity (Yardstick.run iters));
  (now () - t) * 1000 / iters

let start sw =
  if sw.yard_iters > 0 then sw.yard <- yardstick sw.yard_iters;
  timed := true;
  sw.w0 <- minor_words ();
  sw.t0 <- now ()

let stop sw =
  let t = now () in
  let w = minor_words () in
  let dt = t - sw.t0 in
  sw.ns <- sw.ns + dt;
  sw.norm <- sw.norm + (dt * Yardstick.nominal_ps / sw.yard);
  sw.words <- sw.words + w - sw.w0;
  sw.regions <- sw.regions + 1;
  sw.yard_ps <- sw.yard_ps + sw.yard;
  timed := false

(* End the current region and start the next, with its own sample. Short
   regions track the machine's speed closely: it can change within tens of
   milliseconds. *)
let split sw =
  stop sw;
  start sw

(* {1 Wrapping a sanitizer} *)

let wrap ~owner (san : San.t) =
  let access = slot ~owner Access
  and cached = slot ~owner Cached_access
  and region = slot ~owner Check_region
  and malloc = slot ~owner Malloc
  and free = slot ~owner Free
  and restore = slot ~owner Restore in
  {
    san with
    San.access =
      (fun ~base ~addr ~width ->
        enter access;
        match san.San.access ~base ~addr ~width with
        | r -> leave (); r
        | exception e -> leave (); raise e);
    cached_access =
      (fun cache ~off ~width ->
        enter cached;
        match san.San.cached_access cache ~off ~width with
        | r -> leave (); r
        | exception e -> leave (); raise e);
    flush_cache =
      (fun cache ->
        enter cached;
        match san.San.flush_cache cache with
        | r -> leave (); r
        | exception e -> leave (); raise e);
    check_region =
      (fun ~lo ~hi ->
        enter region;
        match san.San.check_region ~lo ~hi with
        | r -> leave (); r
        | exception e -> leave (); raise e);
    malloc =
      (fun ?kind size ->
        enter malloc;
        match san.San.malloc ?kind size with
        | r -> leave (); r
        | exception e -> leave (); raise e);
    free =
      (fun ptr ->
        enter free;
        match san.San.free ptr with
        | r -> leave (); r
        | exception e -> leave (); raise e);
    restore =
      (fun () ->
        enter restore;
        match san.San.restore () with
        | () -> leave ()
        | exception e -> leave (); raise e);
  }

(* {1 Span cost}

   [calibrate ~empty n] times [n] direct calls of [empty]'s [access] (a
   check that does nothing, i.e. native's) against [n] wrapped ones,
   outside any timed region and under an owner of its own. Run before
   every traced batch, it measures the span cost in the same state of the
   machine and caches as the batch. [span_cost ()] returns [(total,
   inside)] over all calibrations so far: what one span adds to a call,
   and the part of it that lands inside the span's own interval (the rest
   lands in the enclosing span, or in no span at all). *)

let calibrate ~(empty : San.t) n =
  let wrapped = wrap ~owner:calibration_owner empty in
  let loop (s : San.t) =
    let t0 = now () in
    for i = 1 to n do
      ignore (Sys.opaque_identity (s.San.access ~base:0 ~addr:i ~width:8))
    done;
    now () - t0
  in
  let was_on = !on and was_entered = !entered in
  on := true;
  (* calibration spans stay out of the log *)
  entered := log_cap;
  calibration_direct := !calibration_direct + loop empty;
  calibration_traced := !calibration_traced + loop wrapped;
  calibration_calls := !calibration_calls + n;
  entered := was_entered;
  on := was_on

let span_cost () =
  let k = bank_untimed + slot ~owner:calibration_owner Access in
  if calls.(k) = 0 then (0., 0.)
  else
    ( float_of_int (!calibration_traced - !calibration_direct)
      /. float_of_int !calibration_calls,
      float_of_int self_ns.(k) /. float_of_int calls.(k) )

(* {1 Reading the totals} *)

type totals = { t_ns : int; t_words : int; t_calls : int; t_nested : int }

let totals ~timed:in_timed s =
  let k = (if in_timed then bank_timed else bank_untimed) + s in
  {
    t_ns = self_ns.(k);
    t_words = self_words.(k);
    t_calls = calls.(k);
    t_nested = nested.(k);
  }

let spans_logged () = min !entered log_cap

let log_json ~owner_name =
  let module Json = Giantsan_telemetry.Json in
  Json.List
    (List.init (spans_logged ()) (fun i ->
         let s = log_slot.(i) in
         Json.Obj
           [
             ("layer", Json.Str (layer_name layers.(s mod n_layers)));
             ("owner", Json.Str (owner_name (s / n_layers)));
             ("start_ns", Json.Int log_start.(i));
             ("end_ns", Json.Int log_end.(i));
             ("parent", Json.Int log_parent.(i));
             ("batch", Json.Int log_batch.(i));
           ]))
