(* The benchmark's own checks, at small op counts: oracles pass, event
   counts are exact, span accounting adds up, the yardstick and the span
   wrapper allocate nothing, and a wrong oracle is caught. *)

module M = E2e.Measure
module W = E2e.Workloads
module S = E2e.Spans
module Backend = Giantsan_policy.Backend
module Counters = Giantsan_sanitizer.Counters
module San = Giantsan_sanitizer.Sanitizer
module Heap = Giantsan_memsim.Heap

let small (w : W.t) =
  match w.W.name with
  | "spec-sweep" -> 2
  | "traversal" -> 16
  | "alloc-churn" -> 512
  | _ -> 24

let config ?backends w =
  M.config ~seconds:0. ~setups:1 ~min_rounds:2 ?backends ~size:(small w)
    ~seed:3 w

let check name ok =
  if ok then Printf.printf "ok   %s\n%!" name
  else begin
    Printf.printf "FAIL %s\n%!" name;
    exit 1
  end

let name (w : W.t) = w.W.name

(* every backend's event counts after one batch each *)
let counts ~traced w =
  S.reset ();
  let inst = w.W.setup ~size:(small w) ~seed:3 W.backends in
  S.on := traced;
  Array.iteri (fun i _ -> inst.W.batch i (S.stopwatch ~yard_iters:0)) W.backends;
  S.on := false;
  Array.map
    (fun (c : W.counts) ->
      ( c.W.ops,
        c.loads,
        c.stores,
        Counters.to_assoc c.counters,
        c.sim_ns,
        (c.stats.x_plain, c.stats.x_cached, c.stats.x_eliminated) ))
    inst.W.counts

let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let () =
  List.iter
    (fun w ->
      let r = M.run (config w) in
      check (name w ^ ": every oracle passes")
        (r.M.failed = 0 && r.M.attempted > 0);
      let first = counts ~traced:false w in
      check (name w ^ ": counts repeat exactly")
        (first = counts ~traced:false w);
      check (name w ^ ": tracing leaves counts unchanged")
        (first = counts ~traced:true w);
      (* layer self times plus other make up the traced total *)
      S.reset ();
      let cfg = config w in
      let inst = w.W.setup ~size:cfg.M.size ~seed:cfg.M.seed W.backends in
      S.on := true;
      let rs = M.run_rounds cfg inst ~seconds:0. in
      S.on := false;
      let total = float_of_int (M.raw_total rs) in
      let nb = Array.length W.backends in
      let sum a =
        List.fold_left (fun s (_, _, x) -> s +. x) a.M.a_other a.M.a_self
      in
      let raw = M.account ~nb ~inside:0. ~outside:0. ~total in
      check (name w ^ ": spans lie inside the timed regions")
        (raw.M.a_other >= 0.);
      let a = M.account ~nb ~inside:5. ~outside:3. ~total in
      check
        (name w ^ ": self times plus other equal the total")
        (Float.abs (sum a -. a.M.a_total) <= 1e-9 *. total))
    W.all;
  check "the yardstick allocates nothing"
    (minor_words (fun () ->
         ignore (Sys.opaque_identity (E2e.Yardstick.warm ()));
         ignore (Sys.opaque_identity (E2e.Yardstick.run 10_000)))
    = 0.);
  let native = Backend.create Backend.Native Heap.default_config in
  let wrapped = S.wrap ~owner:0 native in
  let cache = wrapped.San.new_cache ~base:64 in
  S.reset ();
  S.on := true;
  let sw = S.stopwatch ~yard_iters:0 in
  let words =
    minor_words (fun () ->
        S.start sw;
        for i = 1 to 1000 do
          let addr = 64 + i in
          ignore (Sys.opaque_identity (wrapped.San.access ~base:64 ~addr ~width:1));
          ignore (Sys.opaque_identity (wrapped.San.cached_access cache ~off:i ~width:1));
          ignore (Sys.opaque_identity (wrapped.San.check_region ~lo:64 ~hi:addr))
        done;
        S.stop sw)
  in
  S.on := false;
  check "the span wrapper allocates nothing" (words = 0.);
  (* native's runtime under giantsan's name misses the planted violations
     giantsan claims to catch (fuzz-persistent's oracle compares a backend
     with itself, so only these two can notice) *)
  let impostor =
    [| { W.id = Backend.Giantsan; create = Backend.create Backend.Native } |]
  in
  List.iter
    (fun w ->
      let r = M.run (config ~backends:impostor w) in
      check (name w ^ ": a wrong oracle fails") (r.M.failed > 0))
    [ W.traversal; W.alloc_churn ]
