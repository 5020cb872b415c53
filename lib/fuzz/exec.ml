module Scenario = Giantsan_bugs.Scenario
module Harness = Giantsan_bugs.Harness
module Runner = Giantsan_workload.Runner
module San = Giantsan_sanitizer.Sanitizer
module Counters = Giantsan_sanitizer.Counters
module Report = Giantsan_sanitizer.Report
module Folding = Giantsan_core.Folding
module Memobj = Giantsan_memsim.Memobj

type divergence =
  | False_positive of Runner.config
  | Dominance_violation
  | Family_split
  | Pac_dominance_violation

let divergence_name = function
  | False_positive tool -> "false-positive:" ^ Runner.config_name tool
  | Dominance_violation -> "dominance-violation"
  | Family_split -> "family-split"
  | Pac_dominance_violation -> "pac-dominance-violation"

type outcome = {
  truth : bool;
  verdicts : (Runner.config * bool) list;
  divergences : divergence list;
  features : string list;
}

let tool_tag = function
  | Runner.Giantsan -> "GS"
  | Runner.Asan -> "AS"
  | Runner.Asanmm -> "AM"
  | Runner.Lfp -> "LF"
  | Runner.Pac -> "PA"
  | (Runner.Native | Runner.Cache_only | Runner.Elim_only) as c ->
    invalid_arg ("Exec.tool_tag: not a fuzzed tool: " ^ Runner.config_name c)

(* The counters whose magnitude says something about which paths a run
   exercised. [errors] is deliberately absent: report kinds cover it with
   more precision. *)
let feature_counters (c : Counters.t) =
  [
    ("ic", c.Counters.instr_checks);
    ("rc", c.Counters.region_checks);
    ("fc", c.Counters.fast_checks);
    ("sc", c.Counters.slow_checks);
    ("ch", c.Counters.cache_hits);
    ("cu", c.Counters.cache_updates);
    ("uc", c.Counters.underflow_checks);
    ("bc", c.Counters.bounds_checks);
    ("ps", c.Counters.poison_segments);
  ]

(* {1 Execution modes}

   [Rebuild] is the classic profile: a fresh sanitizer per (tool, scenario)
   pair, paying full construction — arena, shadow plane, tables — for every
   exec. [Persistent] is the ReZZan-style fuzz profile: one long-lived
   sanitizer per tool, snapshotted pristine once, restored after every exec
   (incremental shadow re-poisoning via the dirty-segment window, PAC salt
   rollback). Restoring counters too makes the two modes event-count — and
   therefore feature- and verdict- — identical. *)

type mode = Rebuild | Persistent

let mode_name = function Rebuild -> "rebuild" | Persistent -> "persistent"

type ctx = { c_sans : (Runner.config * San.t) list }

let make_ctx () =
  {
    c_sans =
      List.map
        (fun tool ->
          let san = Harness.make_sanitizer tool in
          san.San.snapshot ();
          (tool, san))
        Harness.all_tools;
  }

let run_tool_on san tool scenario =
  let reports = Scenario.run_reports san scenario in
  let tag = tool_tag tool in
  let kind_features =
    List.sort_uniq compare
      (List.map (fun r -> "r:" ^ tag ^ ":" ^ Report.kind_name r.Report.kind) reports)
  in
  let counter_features =
    List.filter_map
      (fun (name, v) ->
        if v = 0 then None
        else
          Some (Printf.sprintf "c:%s:%s:%d" tag name (Coverage.bucket v)))
      (feature_counters san.San.counters)
  in
  let path_feature =
    (* which region-check paths this run took: fast only, slow only, a mix,
       or none at all *)
    let c = san.San.counters in
    Printf.sprintf "p:%s:%c%c" tag
      (if c.Counters.fast_checks > 0 then 'f' else '-')
      (if c.Counters.slow_checks > 0 then 's' else '-')
  in
  (reports <> [], kind_features @ counter_features @ [ path_feature ])

let run_tool ?ctx tool scenario =
  match ctx with
  | None -> run_tool_on (Harness.make_sanitizer tool) tool scenario
  | Some c ->
    let san = List.assoc tool c.c_sans in
    (* restore even when the scenario dies mid-exec (unallocated slot,
       arena exhaustion): the next exec must still start pristine *)
    Fun.protect
      ~finally:(fun () -> san.San.restore ())
      (fun () -> run_tool_on san tool scenario)

(* Folding degrees the scenario's allocations put into the shadow: cheap to
   recompute from the sizes, and exactly the encoding surface a mutated
   size explores. *)
let degree_features scenario =
  List.sort_uniq compare
    (List.filter_map
       (function
         | Scenario.Alloc { size; _ } when size >= 8 ->
           Some
             (Printf.sprintf "d:%d"
                (Folding.degree_at ~good_segments:(size / 8)))
         | _ -> None)
       scenario.Scenario.sc_steps)

let run ?ctx scenario =
  match
    let truth = Scenario.ground_truth scenario in
    let results =
      List.map
        (fun tool -> (tool, run_tool ?ctx tool scenario))
        Harness.all_tools
    in
    let verdicts = List.map (fun (tool, (v, _)) -> (tool, v)) results in
    let verdict tool = List.assoc tool verdicts in
    let divergences =
      List.filter_map
        (fun (tool, v) ->
          if v && not truth then Some (False_positive tool) else None)
        verdicts
      @ (if verdict Runner.Asan && not (verdict Runner.Giantsan) then
           [ Dominance_violation ]
         else [])
      @ (if verdict Runner.Asan <> verdict Runner.Asanmm then
           [ Family_split ]
         else [])
      @
      (* The PAC-aware expectation: exact signed bounds subsume redzone
         granularity, so PAC must see everything GiantSan sees. The
         legitimate asymmetry runs only the other way — PAC detecting a
         stale use after quarantine recycling (or a far jump past the
         redzone) where the shadow-based tools see plausible live state —
         and ground truth already labels those buggy, so a PAC detection
         there is a correct verdict, never a finding. *)
      if verdict Runner.Giantsan && not (verdict Runner.Pac) then
        [ Pac_dominance_violation ]
      else []
    in
    let features =
      Printf.sprintf "t:%b" truth
      :: Printf.sprintf "v:%s"
           (String.concat ""
              (List.map (fun (_, v) -> if v then "1" else "0") verdicts))
      :: degree_features scenario
      @ List.concat_map (fun (_, (_, fs)) -> fs) results
    in
    { truth; verdicts; divergences; features }
  with
  | outcome -> Ok outcome
  | exception Failure msg -> Error msg
  | exception Out_of_memory -> Error "arena exhausted"

let diverges scenario =
  match run scenario with
  | Ok { divergences; _ } -> divergences <> []
  | Error _ -> false

let capture_trace scenario =
  let _, events =
    Giantsan_telemetry.Trace.with_capture (fun () -> run scenario)
  in
  Giantsan_telemetry.Export.ndjson_lines events
