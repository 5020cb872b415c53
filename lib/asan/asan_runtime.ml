module Memsim = Giantsan_memsim
module Shadow_mem = Giantsan_shadow.Shadow_mem
module San = Giantsan_sanitizer.Sanitizer
module Counters = Giantsan_sanitizer.Counters
module Report = Giantsan_sanitizer.Report
module E = Asan_encoding
module Trace = Giantsan_telemetry.Trace
module Histogram = Giantsan_telemetry.Histogram

(* Example 1 (§2.2): one shadow load, one compare. *)
let check_access m ~addr ~width =
  assert (width >= 1 && width <= 8);
  let v = E.decode_signed (Shadow_mem.load m (addr / 8)) in
  not (v <> 0 && (addr land 7) + width > v)

let region_is_safe m ~lo ~hi =
  if hi <= lo then None
  else begin
    let first_seg = lo / 8 and last_seg = (hi - 1) / 8 in
    let bad = ref None in
    let seg = ref first_seg in
    while !bad = None && !seg <= last_seg do
      let v = Shadow_mem.load m !seg in
      let ok_upto = E.addressable_in_segment v in
      let seg_base = !seg * 8 in
      let want_from = max lo seg_base and want_to = min hi (seg_base + 8) in
      if want_to - seg_base > ok_upto then
        bad := Some (max want_from (seg_base + ok_upto));
      incr seg
    done;
    !bad
  end

let create_exposed ?(name = "ASan") config =
  let heap = Memsim.Heap.create config in
  let m = Shadow_mem.of_heap heap ~fill:E.unallocated in
  Memsim.Heap.set_evict_hook heap (E.poison_evict m);
  let counters = Counters.create () in
  let hists = Histogram.create_set () in
  let report ~anchor ~addr ~size =
    San.report_access ~name heap counters ~anchor ~addr ~size
  in
  let malloc ?kind size =
    counters.Counters.mallocs <- counters.Counters.mallocs + 1;
    let obj = Memsim.Heap.malloc heap ?kind size in
    E.poison_alloc m obj;
    counters.Counters.poison_segments <-
      counters.Counters.poison_segments + (obj.Memsim.Memobj.block_len / 8);
    Trace.emit_malloc ~tool:name ~base:obj.Memsim.Memobj.base ~size
      ~kind:(Memsim.Memobj.kind_name obj.Memsim.Memobj.kind);
    obj
  in
  let free ptr =
    counters.Counters.frees <- counters.Counters.frees + 1;
    Trace.emit_free ~tool:name ~addr:ptr;
    match Memsim.Heap.free heap ptr with
    | Ok { freed; evicted } ->
      E.poison_free m freed;
      List.iter (E.poison_evict m) evicted;
      None
    | Error err -> (
      match San.free_error_report ~name ~addr:ptr err with
      | Some r ->
        counters.Counters.errors <- counters.Counters.errors + 1;
        Trace.emit_report ~tool:name
          ~kind:(Report.kind_name r.Report.kind)
          ~addr:ptr;
        Some r
      | None -> None)
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
  let snapshot, restore =
    San.snapshot_slot
      ~cap:(fun () ->
        (Memsim.Heap.snapshot heap, Shadow_mem.snapshot m,
         San.counters_copy counters))
      ~put:(fun (hs, ss, cs) ->
        Memsim.Heap.restore heap hs;
        Shadow_mem.restore m ss;
        San.counters_restore counters cs)
  in
  let san = {
    San.name;
    heap;
    counters;
    hists;
    shadow_loads = (fun () -> Shadow_mem.loads m);
    shadow_stores = (fun () -> Shadow_mem.stores m);
    malloc;
    free;
    access;
    check_region;
    new_cache = (fun ~base -> San.new_cache ~base);
    cached_access =
      (fun cache ~off ~width ->
        (* No history caching in ASan: every iteration pays a fresh
           instruction-level check. *)
        access ~base:cache.San.cache_base
          ~addr:(cache.San.cache_base + off) ~width);
    flush_cache = (fun _ -> None);
    supports_operation_level = false;
    snapshot;
    restore;
  }
  in
  San.Registry.register san;
  (san, m)

let create ?name config = fst (create_exposed ?name config)
