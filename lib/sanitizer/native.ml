(* No metadata plane and no checks: the shared runtime with the detector
   off is the whole tool. The heap is built first, as in every backend:
   labelled arguments evaluate right to left, and building it inside the
   call would reorder its large allocations (peak_heap_mb in bench/e2e
   moves with that order). *)
let create config =
  let heap = Giantsan_memsim.Heap.create config in
  let counters = Counters.create () in
  let hists = Giantsan_telemetry.Histogram.create_set () in
  Sanitizer.make ~name:"Native" ~detector:false ~heap ~counters ~hists
    ~access:(fun ~base:_ ~addr:_ ~width:_ -> None)
    ~check_region:(fun ~lo:_ ~hi:_ -> None)
    ~cached_access:(fun _ ~off:_ ~width:_ -> None)
    ()
