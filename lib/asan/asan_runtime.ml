module Memsim = Giantsan_memsim
module Shadow_mem = Giantsan_shadow.Shadow_mem
module San = Giantsan_sanitizer.Sanitizer
module Counters = Giantsan_sanitizer.Counters
module Report = Giantsan_sanitizer.Report
module E = Asan_encoding
module Trace = Giantsan_telemetry.Trace
module Histogram = Giantsan_telemetry.Histogram

(* Example 1 (§2.2): one shadow load, one compare. Segment indices are
   floored ([asr 3]), so a byte below address 0 reads its own segment's
   code (the fill), not segment 0's. *)
let check_access m ~addr ~width =
  assert (width >= 1 && width <= 8);
  let v = E.decode_signed (Shadow_mem.load m (addr asr 3)) in
  not (v <> 0 && (addr land 7) + width > v)

(* The first bad byte of [lo, hi) in segment [s] of code [v], or [hi] if
   the part of [lo, hi) inside it is addressable (a bad byte is always
   below [hi]). *)
let segment_bad ~lo ~hi s v =
  let ok_upto = E.addressable_in_segment v in
  let seg_base = s * 8 in
  if Int.min hi (seg_base + 8) - seg_base > ok_upto then
    Int.max lo (seg_base + ok_upto)
  else hi

(* The first and last segments may be partial and are checked one at a
   time. The ones between go through [skip_zero] word-wide, and a nonzero
   code there makes the segment bad from the end of its addressable
   prefix, since they are whole when [hi > 0]. When [hi <= 0] they lie
   below the arena and read as the fill, as does the first segment, which
   is then whole: a nonzero fill stops the scan before them. Loads are one
   per segment up to the bad one, as a per-segment walk charges. *)
let region_is_safe m ~lo ~hi =
  if hi <= lo then None
  else begin
    let first_seg = lo asr 3 and last_seg = (hi - 1) asr 3 in
    let bad = segment_bad ~lo ~hi first_seg (Shadow_mem.load m first_seg) in
    let bad =
      if bad < hi || last_seg = first_seg then bad
      else
        let s = Shadow_mem.skip_zero m ~lo:(first_seg + 1) ~hi:last_seg in
        if s < last_seg then (8 * s) + E.addressable_in_segment (Shadow_mem.peek m s)
        else segment_bad ~lo ~hi last_seg (Shadow_mem.load m last_seg)
    in
    if bad < hi then Some bad else None
  end

let create_exposed ?(name = "ASan") config =
  let heap = Memsim.Heap.create config in
  let m = Shadow_mem.of_heap heap ~fill:E.unallocated in
  (* Applied once here, so neither the hook nor [on_free] builds a closure
     per eviction. *)
  let poison_evict = E.poison_evict m in
  Memsim.Heap.set_evict_hook heap poison_evict;
  let counters = Counters.create () in
  let hists = Histogram.create_set () in
  let report ~anchor ~addr ~size =
    San.report_access ~name heap counters ~anchor ~addr ~size
  in
  let on_malloc (obj : Memsim.Memobj.t) =
    E.poison_alloc m obj;
    counters.Counters.poison_segments <-
      counters.Counters.poison_segments + (obj.block_len / 8)
  in
  let on_free ~freed ~evicted =
    E.poison_free m freed;
    List.iter poison_evict evicted
  in
  (* ASan's instruction checks are single-load fast-path events; its linear
     region scans are the slow path. *)
  let region ~anchor ~lo ~hi ~size =
    counters.Counters.region_checks <- counters.Counters.region_checks + 1;
    let loads_before = if Trace.is_on () then Shadow_mem.loads m else 0 in
    let bad = region_is_safe m ~lo ~hi in
    if Trace.is_on () then begin
      let loads = Shadow_mem.loads m - loads_before in
      Histogram.observe hists.Histogram.h_loads_per_check loads;
      Trace.emit_region_check ~tool:name ~lo ~hi ~fast:false ~loads;
      if loads > 0 then Trace.emit_shadow_load ~tool:name ~count:loads
    end;
    match bad with
    | None -> None
    | Some bad -> report ~anchor ~addr:bad ~size
  in
  let access ~base ~addr ~width =
    (* ASan ignores the anchor: instruction-level protection only. *)
    ignore base;
    if Trace.is_on () then
      Histogram.observe hists.Histogram.h_access_width width;
    if width <= 8 then begin
      counters.Counters.instr_checks <- counters.Counters.instr_checks + 1;
      let ok = check_access m ~addr ~width in
      if Trace.is_on () then begin
        Trace.emit_shadow_load ~tool:name ~count:1;
        Trace.emit_access ~tool:name ~addr ~width ~fast:true
      end;
      if ok then None else report ~anchor:Report.no_anchor ~addr ~size:width
    end
    else begin
      let r =
        region ~anchor:Report.no_anchor ~lo:addr ~hi:(addr + width) ~size:width
      in
      Trace.emit_access ~tool:name ~addr ~width ~fast:false;
      r
    end
  in
  let check_region ~lo ~hi = region ~anchor:lo ~lo ~hi ~size:(hi - lo) in
  let san =
    San.make ~name ~heap ~counters ~hists
      ~loads:(fun () -> Shadow_mem.loads m)
      ~stores:(fun () -> Shadow_mem.stores m)
      ~on_malloc ~on_free
      ~plane:(fun () ->
        let ss = Shadow_mem.snapshot m in
        fun () -> Shadow_mem.restore m ss)
      ~access ~check_region
      ~cached_access:(fun cache ~off ~width ->
        (* No history caching in ASan: every iteration pays a fresh
           instruction-level check. *)
        access ~base:cache.San.cache_base
          ~addr:(cache.San.cache_base + off) ~width)
      ()
  in
  (san, m)

let create ?name config = fst (create_exposed ?name config)
