module Memsim = Giantsan_memsim
module Shadow_mem = Giantsan_shadow.Shadow_mem
module San = Giantsan_sanitizer.Sanitizer
module Counters = Giantsan_sanitizer.Counters
module Report = Giantsan_sanitizer.Report
module Trace = Giantsan_telemetry.Trace
module Histogram = Giantsan_telemetry.Histogram

let create_exposed ?(name = "GiantSan") ?(check_underflow = true) config =
  let heap = Memsim.Heap.create config in
  let m = Shadow_mem.of_heap heap ~fill:State_code.unallocated in
  Memsim.Heap.set_evict_hook heap (Folding.poison_evict m);
  let counters = Counters.create () in
  let hists = Histogram.create_set () in
  (* quarantine-residency bookkeeping (telemetry only): the free sequence
     number each block entered quarantine at, keyed by object id *)
  let quarantined_at : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let report ~anchor ~addr ~size =
    San.report_access ~name heap counters ~anchor ~addr ~size
  in
  let ci ~anchor ~l ~r ~size =
    let loads_before = if Trace.is_on () then Shadow_mem.loads m else 0 in
    let outcome = Region_check.check_unaligned m ~l ~r in
    Region_check.count counters outcome;
    if Trace.is_on () then begin
      let loads = Shadow_mem.loads m - loads_before in
      Histogram.observe hists.Histogram.h_loads_per_check loads;
      Trace.emit_region_check ~tool:name ~lo:l ~hi:r
        ~fast:
          (match outcome with
          | Region_check.Safe_fast | Region_check.Safe_word -> true
          | Region_check.Safe_slow | Region_check.Bad _ -> false)
        ~loads;
      if loads > 0 then Trace.emit_shadow_load ~tool:name ~count:loads
    end;
    match outcome with
    | Region_check.Safe_fast | Region_check.Safe_slow | Region_check.Safe_word
      ->
      None
    | Region_check.Bad addr -> report ~anchor ~addr ~size
  in
  let malloc ?kind size =
    counters.Counters.mallocs <- counters.Counters.mallocs + 1;
    let obj = Memsim.Heap.malloc heap ?kind size in
    Folding.poison_alloc m obj;
    counters.Counters.poison_segments <-
      counters.Counters.poison_segments + (obj.Memsim.Memobj.block_len / 8);
    if Trace.is_on () then begin
      Trace.emit_malloc ~tool:name ~base:obj.Memsim.Memobj.base ~size
        ~kind:(Memsim.Memobj.kind_name obj.Memsim.Memobj.kind);
      Histogram.observe hists.Histogram.h_fold_degree
        (if size >= 8 then Folding.degree_at ~good_segments:(size / 8) else 0)
    end;
    obj
  in
  let free ptr =
    counters.Counters.frees <- counters.Counters.frees + 1;
    Trace.emit_free ~tool:name ~addr:ptr;
    match Memsim.Heap.free heap ptr with
    | Ok { freed; evicted } ->
      Folding.poison_free m freed;
      List.iter (Folding.poison_evict m) evicted;
      if Trace.is_on () then begin
        let now = counters.Counters.frees in
        Hashtbl.replace quarantined_at freed.Memsim.Memobj.id now;
        List.iter
          (fun (o : Memsim.Memobj.t) ->
            match Hashtbl.find_opt quarantined_at o.Memsim.Memobj.id with
            | None -> ()
            | Some entered ->
              Hashtbl.remove quarantined_at o.Memsim.Memobj.id;
              Histogram.observe hists.Histogram.h_quarantine_residency
                (now - entered))
          evicted
      end;
      None
    | Error err ->
      let r = San.free_error_report ~name ~addr:ptr err in
      (match r with
      | Some r ->
        counters.Counters.errors <- counters.Counters.errors + 1;
        Trace.emit_report ~tool:name
          ~kind:(Report.kind_name r.Report.kind)
          ~addr:ptr
      | None -> ());
      r
  in
  (* The per-access telemetry, taken once per call when tracing is on: the
     width histogram before the check, then an Access event that is slow
     iff the check bumped [slow_checks]. *)
  let trace_enter ~width =
    Histogram.observe hists.Histogram.h_access_width width;
    counters.Counters.slow_checks
  in
  let trace_leave ~addr ~width slow_before =
    Trace.emit_access ~tool:name ~addr ~width
      ~fast:(counters.Counters.slow_checks = slow_before)
  in
  let check_access ~base ~addr ~width =
    if base > 0 && addr >= base then
      (* anchor-based: protect everything between the anchor and the
         access *)
      ci ~anchor:base ~l:base ~r:(addr + width) ~size:width
    else if base > 0 && check_underflow then begin
      counters.Counters.underflow_checks <-
        counters.Counters.underflow_checks + 1;
      match ci ~anchor:base ~l:addr ~r:base ~size:width with
      | Some r -> Some r
      | None ->
        if addr + width > base then
          ci ~anchor:base ~l:base ~r:(addr + width) ~size:width
        else None
    end
    else
      (* no anchor (or underflow anchoring disabled, the §5.4 degraded
         mode): check only the accessed bytes *)
      ci ~anchor:Report.no_anchor ~l:addr ~r:(addr + width) ~size:width
  in
  let access ~base ~addr ~width =
    if Trace.is_on () then begin
      let slow_before = trace_enter ~width in
      let r = check_access ~base ~addr ~width in
      trace_leave ~addr ~width slow_before;
      r
    end
    else check_access ~base ~addr ~width
  in
  let check_region ~lo ~hi = ci ~anchor:lo ~l:lo ~r:hi ~size:(hi - lo) in
  let check_cached (cache : San.cache) ~off ~width =
    match Quasi_bound.access m counters cache ~off ~width with
    | Quasi_bound.Ok_cached ->
      Trace.emit_cache_hit ~tool:name ~off;
      None
    | Quasi_bound.Ok_checked ->
      if Trace.is_on () then
        Trace.emit_cache_update ~tool:name ~ub:(San.cache_ub cache);
      None
    | Quasi_bound.Bad addr ->
      report ~anchor:cache.San.cache_base ~addr ~size:width
  in
  let cached_access (cache : San.cache) ~off ~width =
    let base = cache.San.cache_base in
    if off >= 0 || check_underflow then
      if Trace.is_on () then begin
        let slow_before = trace_enter ~width in
        let r = check_cached cache ~off ~width in
        trace_leave ~addr:(base + off) ~width slow_before;
        r
      end
      else check_cached cache ~off ~width
    else
      (* a negative offset in the degraded §5.4 mode: exactly the uncached
         access, which with underflow anchoring off checks only the
         accessed bytes *)
      access ~base ~addr:(base + off) ~width
  in
  let flush_cache cache =
    match Quasi_bound.flush m counters cache with
    | None -> None
    | Some addr -> report ~anchor:cache.San.cache_base ~addr ~size:0
  in
  let snapshot, restore =
    San.snapshot_slot
      ~cap:(fun () ->
        ( Memsim.Heap.snapshot heap,
          Shadow_mem.snapshot m,
          San.counters_copy counters,
          Hashtbl.copy quarantined_at ))
      ~put:(fun (hs, ss, cs, qs) ->
        Memsim.Heap.restore heap hs;
        Shadow_mem.restore m ss;
        San.counters_restore counters cs;
        Hashtbl.reset quarantined_at;
        Hashtbl.iter (Hashtbl.add quarantined_at) qs)
  in
  let san =
    {
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
      cached_access;
      flush_cache;
      supports_operation_level = true;
      snapshot;
      restore;
    }
  in
  San.Registry.register san;
  (san, m)

let create ?name ?check_underflow config =
  fst (create_exposed ?name ?check_underflow config)
