module Memsim = Giantsan_memsim
module San = Giantsan_sanitizer.Sanitizer
module Counters = Giantsan_sanitizer.Counters
module Report = Giantsan_sanitizer.Report
module Trace = Giantsan_telemetry.Trace
module Histogram = Giantsan_telemetry.Histogram

(* The untagged adapter: the common [San.t] interface passes plain
   addresses, so the PAC field cannot literally ride in them. The adapter
   recovers the signing allocation through the allocator's object index
   ([Heap.find_object], the same licence [lib/lfp] takes for its per-slot
   bound table: it stands in for metadata a real runtime derives from the
   pointer itself) and authenticates its signature. What this adapter
   cannot see is a stale pointer that happens to coincide with a {e new}
   live allocation — the tagged [Pac.authenticate] API does catch that
   (the recycled base carries a fresh salt), and the white-box tests
   exercise it; the detection matrix in DESIGN.md spells out both views. *)

let create_exposed ?key config =
  let heap = Memsim.Heap.create config in
  let pac = Pac.create ?key () in
  let counters = Counters.create () in
  let hists = Histogram.create_set () in
  let name = "PAC" in
  let report ~anchor ~addr ~size =
    San.report_access ~name heap counters ~anchor ~addr ~size
  in
  let report_forged ~addr ~size =
    (* a pointer whose signature fails authentication has no provenance
       the runtime will vouch for — the closest taxonomy entry is a wild
       access *)
    counters.Counters.errors <- counters.Counters.errors + 1;
    let r = Report.make ~kind:Report.Wild_access ~addr ~size ~detected_by:name in
    Trace.emit_report ~tool:name ~kind:(Report.kind_name r.Report.kind) ~addr;
    Some r
  in
  let malloc ?kind size =
    counters.Counters.mallocs <- counters.Counters.mallocs + 1;
    let obj = Memsim.Heap.malloc heap ?kind size in
    ignore (Pac.sign pac ~base:obj.Memsim.Memobj.base);
    Trace.emit_malloc ~tool:name ~base:obj.Memsim.Memobj.base ~size
      ~kind:(Memsim.Memobj.kind_name obj.Memsim.Memobj.kind);
    obj
  in
  let free ptr =
    counters.Counters.frees <- counters.Counters.frees + 1;
    Trace.emit_free ~tool:name ~addr:ptr;
    match Memsim.Heap.free heap ptr with
    | Ok { Memsim.Heap.freed; _ } ->
      (* strip on free: every pointer signed for this allocation is stale
         from here on *)
      ignore (Pac.release pac ~base:freed.Memsim.Memobj.base);
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
  (* Authenticate the access [lo, hi) against the signature of the
     allocation [anchor] derives from, then enforce the exact signed
     bounds [base, base + size) — PAC carries the allocation identity, so
     unlike LFP there is no size-class rounding to hide overflows into
     the slot's slack. *)
  let auth_check ~anchor ~lo ~hi =
    counters.Counters.auth_checks <- counters.Counters.auth_checks + 1;
    if anchor < 64 then
      report ~anchor:Report.no_anchor ~addr:anchor ~size:(hi - lo)
    else
      match Memsim.Heap.find_object heap anchor with
      | None ->
        (* never allocated: no signature can exist, authentication fails *)
        report ~anchor:Report.no_anchor ~addr:lo ~size:(hi - lo)
      | Some obj ->
        let base = obj.Memsim.Memobj.base in
        if obj.Memsim.Memobj.status <> Memsim.Memobj.Live then
          (* the signature was stripped on free: stale pointer *)
          report ~anchor:base ~addr:lo ~size:(hi - lo)
        else (
          match Pac.check pac ~base with
          | Some _ -> report_forged ~addr:lo ~size:(hi - lo)
          | None ->
            let b_hi = base + obj.Memsim.Memobj.size in
            if lo < base || hi > b_hi then
              report ~anchor:base
                ~addr:(if lo < base then lo else b_hi)
                ~size:(hi - lo)
            else None)
  in
  let access ~base ~addr ~width =
    if Trace.is_on () then
      Histogram.observe hists.Histogram.h_access_width width;
    let anchor = if base > 0 then base else addr in
    let r = auth_check ~anchor ~lo:addr ~hi:(addr + width) in
    Trace.emit_access ~tool:name ~addr ~width ~fast:true;
    r
  in
  let check_region ~lo ~hi =
    if hi <= lo then None
    else begin
      (* one authentication covers any length: O(1) like the folded check *)
      let r = auth_check ~anchor:lo ~lo ~hi in
      Trace.emit_region_check ~tool:name ~lo ~hi ~fast:true ~loads:1;
      r
    end
  in
  let snapshot, restore =
    San.snapshot_slot
      ~cap:(fun () ->
        (Memsim.Heap.snapshot heap, Pac.snapshot pac,
         San.counters_copy counters))
      ~put:(fun (hs, ps, cs) ->
        Memsim.Heap.restore heap hs;
        Pac.restore pac ps;
        San.counters_restore counters cs)
  in
  let san =
    {
      San.name;
      heap;
      counters;
      hists;
      (* the signature table is PAC's metadata plane: authentications are
         its loads, sign/strip its stores — what the cost model and the
         service loop's latency synthesis charge for *)
      shadow_loads = (fun () -> Pac.auths pac);
      shadow_stores = (fun () -> Pac.signs pac);
      malloc;
      free;
      access;
      check_region;
      new_cache = (fun ~base -> San.new_cache ~base);
      cached_access =
        (fun cache ~off ~width ->
          access ~base:cache.San.cache_base
            ~addr:(cache.San.cache_base + off) ~width);
      flush_cache = (fun _ -> None);
      supports_operation_level = true;
      snapshot;
      restore;
    }
  in
  San.Registry.register san;
  (san, pac)

let create ?key config = fst (create_exposed ?key config)
