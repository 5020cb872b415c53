(* The allocation-free hot path: with telemetry off, every sanitizer entry
   point the instrumented program calls per access — [access],
   [cached_access] (hit and miss, both directions), [flush_cache] and
   [check_region] (word kernel and scalar kernel sizes) — allocates zero
   minor words on every backend. Closures, options, results and boxed
   int64s on the success path all show up here as words per call. *)

module Memsim = Giantsan_memsim
module San = Giantsan_sanitizer.Sanitizer
module Backend = Giantsan_policy.Backend
module Trace = Giantsan_telemetry.Trace

let calls = 100_000
let obj_size = 512

(* Minor words [call] allocated over [calls] calls, after one warm-up
   call. [call] gets the iteration number so a case can reset state. *)
let words_over_calls call =
  call 0;
  Helpers.minor_words_of (fun () ->
      for i = 1 to calls do
        call i
      done)

let clean what = function
  | None -> ()
  | Some (_ : Giantsan_sanitizer.Report.t) ->
    Alcotest.fail (what ^ ": in-bounds call reported an error")

(* Forget every window, so the next cached access misses again. *)
let empty_windows (c : San.cache) =
  for k = 0 to Array.length c.San.windows - 1 do
    let w = c.San.windows.(k) in
    w.San.w_lo <- 0;
    w.San.w_hi <- 0
  done

(* The cases: each builds its state once (that may allocate) and returns
   the per-call body. [b] is the base of a live [obj_size]-byte object. *)
let cases : (string * (San.t -> int -> int -> unit)) list =
  [
    ( "access anchored",
      fun san b ->
        fun i ->
          clean "access"
            (san.San.access ~base:b ~addr:(b + (8 * (i land 31))) ~width:8) );
    ( "access unanchored",
      fun san b ->
        fun i ->
          clean "access"
            (san.San.access ~base:0 ~addr:(b + (8 * (i land 31))) ~width:8) );
    ( "access underflow",
      fun san b ->
        fun i ->
          clean "access"
            (san.San.access ~base:(b + 256)
               ~addr:(b + (8 * (i land 31)))
               ~width:8) );
    ( "cached_access hit forward",
      fun san b ->
        let cache = san.San.new_cache ~base:b in
        clean "warm" (san.San.cached_access cache ~off:(obj_size - 8) ~width:8);
        fun i ->
          clean "cached_access"
            (san.San.cached_access cache ~off:(8 * (i land 63)) ~width:8) );
    ( "cached_access hit reverse",
      fun san b ->
        let cache = san.San.new_cache ~base:(b + obj_size - 8) in
        clean "warm"
          (san.San.cached_access cache ~off:(8 - obj_size) ~width:8);
        fun i ->
          clean "cached_access"
            (san.San.cached_access cache ~off:(-8 * (i land 63)) ~width:8) );
    ( "cached_access miss forward",
      fun san b ->
        let cache = san.San.new_cache ~base:b in
        fun i ->
          empty_windows cache;
          clean "cached_access"
            (san.San.cached_access cache ~off:(8 * (i land 63)) ~width:8) );
    ( "cached_access miss reverse",
      fun san b ->
        let cache = san.San.new_cache ~base:(b + obj_size - 8) in
        fun i ->
          empty_windows cache;
          clean "cached_access"
            (san.San.cached_access cache ~off:(-8 * (1 + (i land 62))) ~width:8)
    );
    ( "flush_cache",
      fun san b ->
        let cache = san.San.new_cache ~base:(b + 256) in
        clean "warm" (san.San.cached_access cache ~off:64 ~width:8);
        clean "warm" (san.San.cached_access cache ~off:(-128) ~width:8);
        fun _ -> clean "flush_cache" (san.San.flush_cache cache) );
    ( "check_region <= 64 B",
      fun san b ->
        fun i ->
          let lo = b + (8 * (i land 7)) in
          clean "check_region" (san.San.check_region ~lo ~hi:(lo + 48)) );
    ( "check_region > 64 B",
      fun san b ->
        fun i ->
          let lo = b + (8 * (i land 7)) in
          clean "check_region" (san.San.check_region ~lo ~hi:(lo + 400)) );
  ]

let test_case id (label, make) =
  let name = Printf.sprintf "%s %s: 0 words/call" (Backend.name id) label in
  Helpers.qt name `Quick (fun () ->
      Trace.disable ();
      let san = Backend.create id Helpers.mid_config in
      let b = (san.San.malloc obj_size).Memsim.Memobj.base in
      let call = make san b in
      let words = words_over_calls call in
      if words > Helpers.counter_cost () then
        Alcotest.fail
          (Printf.sprintf "%.0f words over %d calls (%.4f per call)" words
             calls
             (words /. float_of_int calls)))

(* The traced path, pinned event by event: a cached forward loop, a
   cached reverse loop, one anchored access and one region check, then the
   object is freed and both caches are flushed (the second flush reports
   the use-after-free). Making the untraced path cheaper must leave this
   sequence byte-identical. *)

let traced_loops () =
  let san = Giantsan_core.Gs_runtime.create Helpers.small_config in
  let b = (san.San.malloc 64).Memsim.Memobj.base in
  let (), events =
    Trace.with_capture (fun () ->
        let fwd = san.San.new_cache ~base:b in
        for j = 0 to 3 do
          ignore (san.San.cached_access fwd ~off:(8 * j) ~width:8)
        done;
        let rev = san.San.new_cache ~base:(b + 56) in
        for j = 0 to 3 do
          ignore (san.San.cached_access rev ~off:(-8 * j) ~width:8)
        done;
        ignore (san.San.access ~base:b ~addr:(b + 40) ~width:4);
        ignore (san.San.check_region ~lo:(b + 8) ~hi:(b + 60));
        ignore (san.San.flush_cache fwd);
        ignore (san.San.free b);
        ignore (san.San.flush_cache rev))
  in
  Giantsan_telemetry.Export.ndjson_lines events

let expected_trace =
  [
    {|{"seq":0,"ev":"cache_update","tool":"GiantSan","ub":64}|};
    {|{"seq":1,"ev":"access","tool":"GiantSan","addr":80,"width":8,"path":"fast"}|};
    {|{"seq":2,"ev":"cache_hit","tool":"GiantSan","off":8}|};
    {|{"seq":3,"ev":"access","tool":"GiantSan","addr":88,"width":8,"path":"fast"}|};
    {|{"seq":4,"ev":"cache_hit","tool":"GiantSan","off":16}|};
    {|{"seq":5,"ev":"access","tool":"GiantSan","addr":96,"width":8,"path":"fast"}|};
    {|{"seq":6,"ev":"cache_hit","tool":"GiantSan","off":24}|};
    {|{"seq":7,"ev":"access","tool":"GiantSan","addr":104,"width":8,"path":"fast"}|};
    {|{"seq":8,"ev":"cache_update","tool":"GiantSan","ub":8}|};
    {|{"seq":9,"ev":"access","tool":"GiantSan","addr":136,"width":8,"path":"fast"}|};
    {|{"seq":10,"ev":"cache_update","tool":"GiantSan","ub":8}|};
    {|{"seq":11,"ev":"access","tool":"GiantSan","addr":128,"width":8,"path":"fast"}|};
    {|{"seq":12,"ev":"cache_hit","tool":"GiantSan","off":-16}|};
    {|{"seq":13,"ev":"access","tool":"GiantSan","addr":120,"width":8,"path":"fast"}|};
    {|{"seq":14,"ev":"cache_hit","tool":"GiantSan","off":-24}|};
    {|{"seq":15,"ev":"access","tool":"GiantSan","addr":112,"width":8,"path":"fast"}|};
    {|{"seq":16,"ev":"region_check","tool":"GiantSan","lo":80,"hi":124,"path":"fast","loads":1}|};
    {|{"seq":17,"ev":"shadow_load","tool":"GiantSan","count":1}|};
    {|{"seq":18,"ev":"access","tool":"GiantSan","addr":120,"width":4,"path":"fast"}|};
    {|{"seq":19,"ev":"region_check","tool":"GiantSan","lo":88,"hi":140,"path":"fast","loads":1}|};
    {|{"seq":20,"ev":"shadow_load","tool":"GiantSan","count":1}|};
    {|{"seq":21,"ev":"free","tool":"GiantSan","addr":80}|};
    {|{"seq":22,"ev":"report","tool":"GiantSan","kind":"heap-use-after-free","addr":80}|};
  ]

let test_traced_event_order =
  Helpers.qt "giantsan traced cached loops: pinned event sequence" `Quick
    (fun () ->
      Alcotest.(check (list string)) "events" expected_trace (traced_loops ()))

let suite =
  ( "hot path",
    List.concat_map
      (fun id -> List.map (test_case id) cases)
      [ Backend.Native; Giantsan; Asan; Lfp; Pac ]
    @ [ test_traced_event_order ] )
