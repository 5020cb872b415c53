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

(* A cache anchored off a segment boundary: GiantSan's cached path checks
   from the anchor's segment, as an uncached access does (a segment's
   addressable bytes form a prefix), and must not trip the aligned
   kernel's assertion. Every backend must give each cached access the
   report of the matching uncached one: in bounds, past the end, and below
   the object. *)
let test_unaligned_cache_base () =
  let show = Option.fold ~none:"clean" ~some:Report.to_string in
  List.iter
    (fun id ->
      for k = 0 to 7 do
        let san = fresh id in
        let base = (san.San.malloc 64).Memsim.Memobj.base + k in
        List.iter
          (fun (off, width) ->
            let what =
              Printf.sprintf "%s base+%d off %d width %d" (Backend.name id) k
                off width
            in
            let cached =
              match san.San.cached_access (san.San.new_cache ~base) ~off ~width
              with
              | r -> show r
              | exception e -> Printexc.to_string e
            in
            Alcotest.(check string) what
              (show (san.San.access ~base ~addr:(base + off) ~width))
              cached)
          [ (0, 1); (8, 4); (60 - k, 4); (64 - k, 1); (-1, 1); (-k - 1, 2) ]
      done)
    Backend.all

let addr_of = Option.map (fun (r : Report.t) -> r.Report.addr)

(* The blamed byte lies in the checked region: an unanchored access names
   its own address, not the first byte of its segment, and a region check
   its first bad byte; below address 0 too. *)
let test_blame_in_region () =
  List.iter
    (fun id ->
      if detector id then begin
        let san = fresh id in
        let b = (san.San.malloc 64).Memsim.Memobj.base in
        let name = Backend.name id in
        Alcotest.(check (option int)) (name ^ " access b-3") (Some (b - 3))
          (addr_of (san.San.access ~base:0 ~addr:(b - 3) ~width:1));
        Alcotest.(check (option int)) (name ^ " access -3") (Some (-3))
          (addr_of (san.San.access ~base:0 ~addr:(-3) ~width:1))
      end)
    Backend.all;
  List.iter
    (fun id ->
      let san = fresh id in
      let b = (san.San.malloc 64).Memsim.Memobj.base in
      let name = Backend.name id in
      Alcotest.(check (option int)) (name ^ " region [b-5, b+3)") (Some (b - 5))
        (addr_of (san.San.check_region ~lo:(b - 5) ~hi:(b + 3)));
      Alcotest.(check (option int)) (name ^ " region [-12, 3)") (Some (-12))
        (addr_of (san.San.check_region ~lo:(-12) ~hi:3)))
    Backend.[ Giantsan; Asan ]

(* The same over random heaps, for the shadow backends: live and freed
   objects, anchored accesses above and below their anchor, unanchored
   ones and region checks, at unaligned addresses and widths, some below
   address 0. An anchored access checks [min base addr, max base
   (addr + width)), an unanchored one [addr, addr + width); every report
   must name a byte in it. *)
let prop_blame_in_region seed =
  let rng = Giantsan_util.Rng.create seed in
  List.for_all
    (fun id ->
      let san = Backend.create id Helpers.small_config in
      let bases =
        Array.init 6 (fun _ ->
            (san.San.malloc (Giantsan_util.Rng.int_in rng 1 200))
              .Memsim.Memobj.base)
      in
      Array.iter
        (fun b -> if Giantsan_util.Rng.int rng 3 = 0 then ignore (san.San.free b))
        bases;
      let within lo hi r =
        match addr_of r with
        | None -> true
        | Some a ->
          lo <= a && a < hi
          || QCheck.Test.fail_reportf "%s blamed %d outside [%d, %d)"
               (Backend.name id) a lo hi
      in
      List.for_all
        (fun _ ->
          let anchor = Giantsan_util.Rng.pick rng bases in
          let addr = anchor + Giantsan_util.Rng.int_in rng (-40) 240 in
          let width = Giantsan_util.Rng.pick rng [| 1; 2; 4; 8 |] in
          let lo = Giantsan_util.Rng.int_in rng (-24) (anchor + 240) in
          let hi = lo + Giantsan_util.Rng.int_in rng 0 96 in
          within (Int.min anchor addr) (Int.max anchor (addr + width))
            (san.San.access ~base:anchor ~addr ~width)
          && within addr (addr + width) (san.San.access ~base:0 ~addr ~width)
          && within lo hi (san.San.check_region ~lo ~hi))
        (List.init 24 Fun.id))
    Backend.[ Giantsan; Asan ]

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
      Backend.all
    @ [
        Alcotest.test_case "unaligned cache base: cached = uncached verdict"
          `Quick test_unaligned_cache_base;
        Alcotest.test_case "blamed address lies in the checked region" `Quick
          test_blame_in_region;
        Helpers.q "random checks: the blamed address lies in the region"
          QCheck.small_int prop_blame_in_region;
      ] )
