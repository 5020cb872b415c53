let default_capacity = 65536

(* One sink per domain (Domain.DLS): each worker domain spawned by the
   parallel engine gets its own switch + ring, so runtimes may emit from any
   domain without synchronisation and one shard's capture can never observe
   another shard's events. A freshly spawned domain starts with tracing off.

   [live] counts the sinks that are on, across all domains. Every query
   tests it first, so while no domain traces (the normal case) [is_on] and
   the emitters cost one atomic load and no DLS lookup. A sink's [on] flag
   only changes through [set_on], which keeps the count exact. *)
type sink = { mutable on : bool; mutable buf : Event.t Ring.t }

let live = Atomic.make 0

let set_on s on =
  if s.on <> on then begin
    s.on <- on;
    if on then Atomic.incr live else Atomic.decr live
  end

let sink_key =
  (* the placeholder ring is never pushed to while [on] is false; [enable]
     installs a real one. A domain that ends with tracing on gives its
     share of [live] back. *)
  Domain.DLS.new_key (fun () ->
      let s = { on = false; buf = Ring.create ~capacity:1 } in
      Domain.at_exit (fun () -> set_on s false);
      s)

let sink () = Domain.DLS.get sink_key

let is_on () = Atomic.get live > 0 && (sink ()).on
let sinks_on () = Atomic.get live

let enable ?(capacity = default_capacity) () =
  let s = sink () in
  s.buf <- Ring.create ~capacity;
  set_on s true

let disable () = set_on (sink ()) false
let clear () = Ring.clear (sink ()).buf
let events () = Ring.to_seq_list (sink ()).buf
let emitted () = Ring.pushed (sink ()).buf
let dropped () = Ring.dropped (sink ()).buf

let with_capture ?(capacity = default_capacity) f =
  let s = sink () in
  let saved_on = s.on and saved_buf = s.buf in
  s.buf <- Ring.create ~capacity;
  set_on s true;
  Fun.protect
    ~finally:(fun () ->
      set_on s saved_on;
      s.buf <- saved_buf)
    (fun () ->
      let r = f () in
      (r, Ring.to_seq_list s.buf))

(* Each emitter tests the live count, then its own domain's switch, and
   only then constructs the event: the disabled path allocates nothing. *)

let emit_malloc ~tool ~base ~size ~kind =
  if Atomic.get live > 0 then
    let s = sink () in
    if s.on then Ring.push s.buf (Event.Malloc { tool; base; size; kind })

let emit_free ~tool ~addr =
  if Atomic.get live > 0 then
    let s = sink () in
    if s.on then Ring.push s.buf (Event.Free { tool; addr })

let emit_access ~tool ~addr ~width ~fast =
  if Atomic.get live > 0 then
    let s = sink () in
    if s.on then
      Ring.push s.buf
        (Event.Access
           {
             tool; addr; width;
             path = (if fast then Event.Fast else Event.Slow);
           })

let emit_shadow_load ~tool ~count =
  if Atomic.get live > 0 then
    let s = sink () in
    if s.on then Ring.push s.buf (Event.Shadow_load { tool; count })

let emit_cache_hit ~tool ~off =
  if Atomic.get live > 0 then
    let s = sink () in
    if s.on then Ring.push s.buf (Event.Cache_hit { tool; off })

let emit_cache_update ~tool ~ub =
  if Atomic.get live > 0 then
    let s = sink () in
    if s.on then Ring.push s.buf (Event.Cache_update { tool; ub })

let emit_region_check ~tool ~lo ~hi ~fast ~loads =
  if Atomic.get live > 0 then
    let s = sink () in
    if s.on then
      Ring.push s.buf
        (Event.Region_check
           {
             tool; lo; hi;
             path = (if fast then Event.Fast else Event.Slow);
             loads;
           })

let emit_report ~tool ~kind ~addr =
  if Atomic.get live > 0 then
    let s = sink () in
    if s.on then Ring.push s.buf (Event.Report { tool; kind; addr })

let emit_phase_begin ~name =
  if Atomic.get live > 0 then
    let s = sink () in
    if s.on then Ring.push s.buf (Event.Phase_begin { name })

let emit_phase_end ~name =
  if Atomic.get live > 0 then
    let s = sink () in
    if s.on then Ring.push s.buf (Event.Phase_end { name })
