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
  (* Applied once here, so neither the hook nor [on_free] builds a closure
     per eviction. *)
  let poison_evict = Folding.poison_evict m in
  Memsim.Heap.set_evict_hook heap poison_evict;
  let counters = Counters.create () in
  let hists = Histogram.create_set () in
  (* quarantine-residency bookkeeping (telemetry only): the free sequence
     number each block entered quarantine at, keyed by object id *)
  let quarantined_at : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let report ~anchor ~addr ~size =
    San.report_access ~name heap counters ~anchor ~addr ~size
  in
  (* [traced] is the caller's one [Trace.is_on ()] read for this check *)
  let ci ~traced ~anchor ~l ~r ~size =
    let loads_before = if traced then Shadow_mem.loads m else 0 in
    let outcome = Region_check.check_unaligned m ~l ~r in
    Region_check.count counters outcome;
    if traced then begin
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
  let on_malloc (obj : Memsim.Memobj.t) =
    Folding.poison_alloc m obj;
    counters.Counters.poison_segments <-
      counters.Counters.poison_segments + (obj.block_len / 8);
    if Trace.is_on () then
      Histogram.observe hists.Histogram.h_fold_degree
        (if obj.size >= 8 then Folding.degree_at ~good_segments:(obj.size / 8)
         else 0)
  in
  let on_free ~(freed : Memsim.Memobj.t) ~evicted =
    Folding.poison_free m freed;
    List.iter poison_evict evicted;
    if Trace.is_on () then begin
      let now = counters.Counters.frees in
      Hashtbl.replace quarantined_at freed.id now;
      List.iter
        (fun (o : Memsim.Memobj.t) ->
          match Hashtbl.find_opt quarantined_at o.id with
          | None -> ()
          | Some entered ->
            Hashtbl.remove quarantined_at o.id;
            Histogram.observe hists.Histogram.h_quarantine_residency
              (now - entered))
        evicted
    end
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
  let check_access ~traced ~base ~addr ~width =
    if base > 0 && addr >= base then
      (* anchor-based: protect everything between the anchor and the
         access *)
      ci ~traced ~anchor:base ~l:base ~r:(addr + width) ~size:width
    else if base > 0 && check_underflow then begin
      counters.Counters.underflow_checks <-
        counters.Counters.underflow_checks + 1;
      match ci ~traced ~anchor:base ~l:addr ~r:base ~size:width with
      | Some r -> Some r
      | None ->
        if addr + width > base then
          ci ~traced ~anchor:base ~l:base ~r:(addr + width) ~size:width
        else None
    end
    else
      (* no anchor (or underflow anchoring disabled, the §5.4 degraded
         mode): check only the accessed bytes *)
      ci ~traced ~anchor:Report.no_anchor ~l:addr ~r:(addr + width)
        ~size:width
  in
  let access_traced ~traced ~base ~addr ~width =
    if traced then begin
      let slow_before = trace_enter ~width in
      let r = check_access ~traced ~base ~addr ~width in
      trace_leave ~addr ~width slow_before;
      r
    end
    else check_access ~traced ~base ~addr ~width
  in
  let access ~base ~addr ~width =
    access_traced ~traced:(Trace.is_on ()) ~base ~addr ~width
  in
  let check_region ~lo ~hi =
    ci ~traced:(Trace.is_on ()) ~anchor:lo ~l:lo ~r:hi ~size:(hi - lo)
  in
  let check_cached ~traced (cache : San.cache) ~off ~width =
    match Quasi_bound.access m counters cache ~off ~width with
    | Quasi_bound.Ok_cached ->
      if traced then Trace.emit_cache_hit ~tool:name ~off;
      None
    | Quasi_bound.Ok_checked ->
      if traced then
        Trace.emit_cache_update ~tool:name ~ub:(San.cache_ub cache);
      None
    | Quasi_bound.Bad addr ->
      report ~anchor:cache.San.cache_base ~addr ~size:width
  in
  (* Everything [cached_access] does not settle itself: the
     negative-offset inline hit, misses, the degraded §5.4 mode and traced
     calls. *)
  let cached_slow (cache : San.cache) ~off ~width =
    let base = cache.San.cache_base in
    let traced = Trace.is_on () in
    let w = cache.San.windows.(0) in
    if
      (* the underflow side of Figure 9's one-compare hit: [base+off, base)
         for an access that ends at or under the anchor, covered by the MRU
         front, is [cache_hit]'s k = 0 case, as in [cached_access] *)
      (not traced)
      && off < 0 && check_underflow && off + width <= 0
      && w.San.w_lo <= base + off
      && base <= w.San.w_hi
    then begin
      counters.Counters.cache_hits <- counters.Counters.cache_hits + 1;
      None
    end
    else if off >= 0 || check_underflow then
      if traced then begin
        let slow_before = trace_enter ~width in
        let r = check_cached ~traced cache ~off ~width in
        trace_leave ~addr:(base + off) ~width slow_before;
        r
      end
      else check_cached ~traced cache ~off ~width
    else
      (* a negative offset in the degraded §5.4 mode: exactly the uncached
         access, which with underflow anchoring off checks only the
         accessed bytes *)
      access_traced ~traced ~base ~addr:(base + off) ~width
  in
  let cached_access (cache : San.cache) ~off ~width =
    let base = cache.San.cache_base in
    let w = cache.San.windows.(0) in
    if
      (* Figure 9's one-compare hit, in a closure of its own so the hit
         shares no frame with the slow path: the MRU front already covers
         what [Quasi_bound.access] would ask [San.cache_hit] about,
         [base, base+off+width) above the anchor. A non-empty query covered
         this way forces the window to be non-empty, and an empty query is a
         hit on the full path too. This is [cache_hit]'s k = 0 case, whose
         promotion is a self-copy, so only the hit count moves. The trace
         switch is read last: a traced run takes the full path. *)
      off >= 0
      && w.San.w_lo <= base
      && base + off + width <= w.San.w_hi
      && not (Trace.is_on ())
    then begin
      counters.Counters.cache_hits <- counters.Counters.cache_hits + 1;
      None
    end
    else cached_slow cache ~off ~width
  in
  let flush_cache cache =
    match Quasi_bound.flush m counters cache with
    | None -> None
    | Some addr -> report ~anchor:cache.San.cache_base ~addr ~size:0
  in
  let rec put_quarantined = function
    | [] -> ()
    | (id, at) :: rest ->
      Hashtbl.add quarantined_at id at;
      put_quarantined rest
  in
  let plane () =
    let ss = Shadow_mem.snapshot m in
    let qs = Hashtbl.fold (fun id at l -> (id, at) :: l) quarantined_at [] in
    fun () ->
      Shadow_mem.restore m ss;
      Hashtbl.reset quarantined_at;
      put_quarantined qs
  in
  let san =
    San.make ~name ~heap ~counters ~hists
      ~loads:(fun () -> Shadow_mem.loads m)
      ~stores:(fun () -> Shadow_mem.stores m)
      ~on_malloc ~on_free ~plane ~access ~check_region ~cached_access
      ~flush_cache ()
  in
  (san, m)

let create ?name ?check_underflow config =
  fst (create_exposed ?name ?check_underflow config)
