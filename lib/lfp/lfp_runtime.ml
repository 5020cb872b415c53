module Memsim = Giantsan_memsim
module San = Giantsan_sanitizer.Sanitizer
module Counters = Giantsan_sanitizer.Counters
module Report = Giantsan_sanitizer.Report
module Trace = Giantsan_telemetry.Trace
module Histogram = Giantsan_telemetry.Histogram

let create config =
  let heap = Memsim.Heap.create config in
  let counters = Counters.create () in
  let hists = Histogram.create_set () in
  let name = "LFP" in
  let report ~anchor ~addr ~size =
    San.report_access ~name heap counters ~anchor ~addr ~size
  in
  (* Bounds check against the slot of [anchor] (the pointer the bounds were
     derived from). *)
  let bounds_check ~anchor ~lo ~hi =
    counters.Counters.bounds_checks <- counters.Counters.bounds_checks + 1;
    if anchor < 64 then
      report ~anchor:Report.no_anchor ~addr:anchor ~size:(hi - lo)
    else
      match Memsim.Heap.find_object heap anchor with
      | None ->
        (* The pointer does not point into any slot LFP knows about: the
           derived bounds are garbage and real LFP performs no check. *)
        None
      | Some obj ->
        if
          obj.Memsim.Memobj.kind = Memsim.Memobj.Stack
          && obj.Memsim.Memobj.size < 1024
        then
          (* LFP's stack protection is incomplete: only allocas moved to
             its aligned regions (large arrays) carry derivable bounds.
             This is why Table 3 shows LFP catching a sliver of CWE-121. *)
          None
        else if obj.Memsim.Memobj.status <> Memsim.Memobj.Live then
          report ~anchor:obj.Memsim.Memobj.base ~addr:lo ~size:(hi - lo)
        else begin
          (* the believed end is the class size, not the requested one *)
          let b_lo = obj.Memsim.Memobj.base in
          let b_hi = b_lo + Size_class.round_up obj.Memsim.Memobj.size in
          if lo < b_lo || hi > b_hi then
            report ~anchor:obj.Memsim.Memobj.base
              ~addr:(if lo < b_lo then lo else b_hi)
              ~size:(hi - lo)
          else None
        end
  in
  let access ~base ~addr ~width =
    if Trace.is_on () then
      Histogram.observe hists.Histogram.h_access_width width;
    let anchor = if base > 0 then base else addr in
    let r = bounds_check ~anchor ~lo:addr ~hi:(addr + width) in
    (* LFP consults its per-slot bound table, never shadow: every check is
       a constant-time fast-path comparison *)
    Trace.emit_access ~tool:name ~addr ~width ~fast:true;
    r
  in
  let check_region ~lo ~hi =
    if hi <= lo then None
    else begin
      let r = bounds_check ~anchor:lo ~lo ~hi in
      Trace.emit_region_check ~tool:name ~lo ~hi ~fast:true ~loads:0;
      r
    end
  in
  (* The allocator hands out the class size so the slot really exists; the
     oracle still only marks the requested bytes addressable, which is
     exactly LFP's blind spot. LFP keeps no metadata beyond the allocator's
     own object index, so it has no plane: the heap snapshot already
     carries its whole world. *)
  San.make ~name ~heap ~counters ~hists ~access ~check_region
    ~cached_access:(fun cache ~off ~width ->
      access ~base:cache.San.cache_base
        ~addr:(cache.San.cache_base + off) ~width)
    ()
