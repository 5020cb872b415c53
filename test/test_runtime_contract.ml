(* The runtime contract every backend inherits from [Sanitizer.make], checked
   over [Backend.all]: the snapshot slot refuses a restore before any
   snapshot, the four detectors classify and count free errors while
   Native stays silent, malloc/free are counted everywhere, and only the
   detectors emit malloc/free/report trace events. *)

module Memsim = Giantsan_memsim
module San = Giantsan_sanitizer.Sanitizer
module Report = Giantsan_sanitizer.Report
module Backend = Giantsan_policy.Backend
module Trace = Giantsan_telemetry.Trace
module Event = Giantsan_telemetry.Event

let fresh id = Backend.create id Helpers.mid_config
let detector id = id <> Backend.Native

let test_restore_before_snapshot id () =
  let san = fresh id in
  match san.San.restore () with
  | () -> Alcotest.fail "restore before any snapshot returned"
  | exception Invalid_argument _ -> ()

(* Each bad free, the report kind a detector must give it, and the
   address it is made at (from a fresh 64-byte object's base). *)
let bad_frees =
  [
    ("double free", Report.Double_free, fun san base ->
      ignore (san.San.free base);
      base);
    ("interior free", Report.Free_not_at_start, fun _ base -> base + 8);
    ( "wild free",
      Report.Invalid_free,
      fun _ _ -> Helpers.mid_config.Memsim.Heap.arena_size - 8 );
  ]

let kind = Alcotest.testable (Fmt.of_to_string Report.kind_name) ( = )

let test_free_errors id () =
  List.iter
    (fun (what, want, setup) ->
      let san = fresh id in
      let base = (san.San.malloc 64).Memsim.Memobj.base in
      let ptr = setup san base in
      let errors = san.San.counters.errors in
      let r = san.San.free ptr in
      if detector id then begin
        match r with
        | None -> Alcotest.failf "%s: no report" what
        | Some r ->
          Alcotest.check kind what want r.Report.kind;
          Alcotest.(check int) (what ^ ": one error") (errors + 1)
            san.San.counters.errors
      end
      else begin
        Alcotest.(check bool) (what ^ ": Native reports nothing") true
          (r = None);
        Alcotest.(check int) (what ^ ": Native counts nothing") 0
          san.San.counters.errors
      end)
    bad_frees;
  let san = fresh id in
  Alcotest.(check bool) "free 0 is benign" true (san.San.free 0 = None);
  Alcotest.(check int) "free 0 is no error" 0 san.San.counters.errors

let test_counts id () =
  let san = fresh id in
  let a = san.San.malloc 16 and b = san.San.malloc 100 in
  ignore (san.San.malloc 8);
  ignore (san.San.free a.Memsim.Memobj.base);
  ignore (san.San.free b.Memsim.Memobj.base);
  ignore (san.San.free 0);
  Alcotest.(check int) "mallocs" 3 san.San.counters.mallocs;
  Alcotest.(check int) "frees (free 0 included)" 3 san.San.counters.frees

let test_trace_events id () =
  let san = fresh id in
  let (), events =
    Trace.with_capture (fun () ->
        let obj = san.San.malloc 32 in
        ignore (san.San.free obj.Memsim.Memobj.base);
        ignore (san.San.free obj.Memsim.Memobj.base))
  in
  let count p = List.length (List.filter p events) in
  let mallocs = count (function _, Event.Malloc _ -> true | _ -> false)
  and frees = count (function _, Event.Free _ -> true | _ -> false)
  and reports = count (function _, Event.Report _ -> true | _ -> false) in
  if detector id then begin
    Alcotest.(check int) "one malloc event" 1 mallocs;
    Alcotest.(check int) "two free events" 2 frees;
    Alcotest.(check int) "one report event (the double free)" 1 reports
  end
  else Alcotest.(check int) "Native emits no events" 0 (List.length events)

let suite =
  ( "contract",
    List.concat_map
      (fun id ->
        let case what f =
          Alcotest.test_case (Backend.name id ^ " " ^ what) `Quick (f id)
        in
        [
          case "restore before snapshot raises" test_restore_before_snapshot;
          case "free errors" test_free_errors;
          case "malloc/free counts" test_counts;
          case "trace events" test_trace_events;
        ])
      Backend.all )
