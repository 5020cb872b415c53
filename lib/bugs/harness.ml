module Memsim = Giantsan_memsim
module Runner = Giantsan_workload.Runner

let all_tools = Runner.[ Giantsan; Asan; Asanmm; Lfp; Pac ]

let make_sanitizer ?(redzone = 16) ?(quarantine = 16 * 1024) tool =
  let heap =
    { Memsim.Heap.arena_size = 32 * 1024; redzone; quarantine_budget = quarantine }
  in
  Runner.make_sanitizer ~heap tool

let detected ?redzone ?quarantine tool scenario =
  Scenario.run (make_sanitizer ?redzone ?quarantine tool) scenario

let count_detected ?redzone ?quarantine tool scenarios =
  List.fold_left
    (fun acc sc ->
      if detected ?redzone ?quarantine tool sc then acc + 1 else acc)
    0 scenarios

let false_positives ?redzone tool scenarios =
  List.fold_left
    (fun acc sc ->
      if (not sc.Scenario.sc_buggy) && detected ?redzone tool sc then acc + 1
      else acc)
    0 scenarios

let validate_corpus scenarios =
  List.filter_map
    (fun sc ->
      match Scenario.validate sc with Ok () -> None | Error e -> Some e)
    scenarios
