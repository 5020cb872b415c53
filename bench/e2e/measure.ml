(* The timing discipline and the metrics.

   A run sets its workload up [setups] times (the median is [setup_s]),
   runs one warm-up round that is thrown away, then rounds until both
   [min_rounds] rounds and [seconds] have passed. A round runs every
   backend's batch once, in an order that rotates by one each round. Each
   timed region of a batch runs right after its own yardstick sample and
   its time is rescaled by [Yardstick.nominal_ps / measured ps] (see
   {!Spans.stopwatch}); the gated value is the median over rounds.

   A traced run spends half its time untraced (event counts, minor words,
   the untraced throughput) and half traced (layer spans); the throughput
   difference between the two halves is the tracing overhead. *)

module W = Workloads
module Json = Giantsan_telemetry.Json
module Counters = Giantsan_sanitizer.Counters
module Backend = Giantsan_policy.Backend
module Stats = Giantsan_util.Stats

type config = {
  workload : W.t;
  seed : int;
  seconds : float;
  trace : bool;
  size : int;
  setups : int;
  min_rounds : int;
  backends : W.backend array;
}

let config ?(seconds = 15.) ?(trace = false) ?size ?(setups = 5)
    ?(min_rounds = 10) ?(backends = W.backends) ~seed workload =
  {
    workload;
    seed;
    seconds;
    trace;
    size = Option.value size ~default:workload.W.default_size;
    setups;
    min_rounds;
    backends;
  }

type metric = { name : string; value : float; unit_ : string }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
      (** the gated set: end-to-end metrics untraced, per-layer traced *)
  info : metric list;  (** printed alongside, never gated *)
  detail : Json.t;
}

let ratio a b = if b = 0. then 0. else a /. b
let fratio a b = ratio (float_of_int a) (float_of_int b)

(* {1 Set-up} *)

let set_up cfg =
  let inst = ref None and times = ref [] in
  for _ = 1 to cfg.setups do
    inst := None;
    Gc.full_major ();
    let y0 = Spans.yardstick cfg.workload.W.yard_iters in
    let t0 = Spans.now () in
    let x = cfg.workload.W.setup ~size:cfg.size ~seed:cfg.seed cfg.backends in
    let dt = Spans.now () - t0 in
    (* set-up is longer than a timed region: sample on both sides of it *)
    let y = (y0 + Spans.yardstick cfg.workload.W.yard_iters) / 2 in
    times := float_of_int (dt * Yardstick.nominal_ps / y) /. 1e9 :: !times;
    inst := Some x
  done;
  (Option.get !inst, !times)

(* {1 Rounds} *)

type batch = {
  b_ns : int;  (** raw *)
  b_norm : int;  (** rescaled to the yardstick's nominal speed *)
  b_yard_ps : int;  (** mean yardstick ps per iteration over its regions *)
}

type rounds = {
  r_count : int;
  r_batches : batch list array;  (** per backend, the measured batches *)
  r_words : int array;  (** minor words of one batch, per backend *)
  r_peak_words : int;
      (** largest major heap seen after a batch of the first [min_rounds] *)
}

(* a sanitizer whose checks do nothing, for span-cost calibration *)
let empty =
  lazy
    (Backend.create Backend.Native
       { Giantsan_memsim.Heap.default_config with arena_size = 4096 })

let run_rounds cfg (inst : W.instance) ~seconds =
  let nb = Array.length cfg.backends in
  let batches = Array.make nb [] and words = Array.make nb 0 in
  let peak = ref 0 in
  let batch r k =
    let i = (k + r + nb) mod nb in
    Spans.batch := (r * nb) + k;
    if !Spans.on then Spans.calibrate ~empty:(Lazy.force empty) 1000;
    let sw = Spans.stopwatch ~yard_iters:cfg.workload.W.yard_iters in
    inst.W.batch i sw;
    (i, sw)
  in
  for k = 0 to nb - 1 do
    ignore (batch (-1) k)
  done;
  Spans.clear_bank Spans.bank_timed;
  let deadline = Spans.now () + int_of_float (seconds *. 1e9) in
  let r = ref 0 in
  while !r < cfg.min_rounds || Spans.now () < deadline do
    for k = 0 to nb - 1 do
      let i, sw = batch !r k in
      batches.(i) <-
        {
          b_ns = sw.Spans.ns;
          b_norm = sw.norm;
          b_yard_ps = sw.yard_ps / max 1 sw.regions;
        }
        :: batches.(i);
      words.(i) <- sw.words;
      (* over a fixed number of rounds, so that a slow machine, which
         runs fewer rounds, does not read as a smaller heap *)
      if !r < cfg.min_rounds then
        peak := max !peak (Gc.quick_stat ()).Gc.heap_words
    done;
    incr r
  done;
  { r_count = !r; r_batches = batches; r_words = words; r_peak_words = !peak }

let yards rs =
  List.concat_map
    (List.map (fun b -> float_of_int b.b_yard_ps /. 1000.))
    (Array.to_list rs.r_batches)

let raw_total rs =
  Array.fold_left
    (fun a l -> List.fold_left (fun a b -> a + b.b_ns) a l)
    0 rs.r_batches

let ops_per_s (inst : W.instance) rs i =
  List.map
    (fun b ->
      ratio (float_of_int inst.W.counts.(i).W.ops *. 1e9) (float_of_int b.b_norm))
    rs.r_batches.(i)

(* mean normalised time of one round *)
let round_ns rs =
  let sum =
    Array.fold_left
      (fun a l -> List.fold_left (fun a b -> a + b.b_norm) a l)
      0 rs.r_batches
  in
  float_of_int sum /. float_of_int rs.r_count

(* {1 Span accounting}

   [self] of a layer is its span self time less, for every span, the part
   of the span cost inside its own interval ([inside]) and, for every span
   nested in it, the part outside ([outside]). What no span covers is
   [other]. By construction [sum self + other = total]. *)

let timed_layers =
  Spans.
    [ Interp; Scenario; Restore; Access; Cached_access; Check_region; Malloc; Free ]

type accounting = {
  a_self : (int * Spans.layer * float) list;  (** owner, layer, corrected ns *)
  a_other : float;
  a_total : float;
}

let corrected ~inside ~outside (t : Spans.totals) =
  float_of_int t.Spans.t_ns
  -. (float_of_int t.t_calls *. inside)
  -. (float_of_int t.t_nested *. outside)

let account ~nb ~inside ~outside ~total =
  let self = ref [] and raw = ref 0. and calls = ref 0 in
  for owner = 0 to nb - 1 do
    List.iter
      (fun layer ->
        let t = Spans.totals ~timed:true (Spans.slot ~owner layer) in
        raw := !raw +. float_of_int t.Spans.t_ns;
        calls := !calls + t.t_calls;
        self := (owner, layer, corrected ~inside ~outside t) :: !self)
      timed_layers
  done;
  let top = float_of_int !Spans.top_level_timed in
  {
    a_self = List.rev !self;
    a_other = total -. !raw -. (top *. outside);
    a_total = total -. (float_of_int !calls *. (inside +. outside));
  }

(* {1 The run} *)

let metric name value unit_ = { name; value; unit_ }

let index_of cfg id =
  let r = ref None in
  Array.iteri (fun i b -> if b.W.id = id && !r = None then r := Some i) cfg.backends;
  !r

let sim_per_op (c : W.counts) = ratio c.W.sim_ns (float_of_int c.W.ops)

let derived cfg (inst : W.instance) ops_med =
  let wall a b =
    (* time per op of [a] over time per op of [b] *)
    ratio ops_med.(b) ops_med.(a)
  and sim a b = ratio (sim_per_op inst.W.counts.(a)) (sim_per_op inst.W.counts.(b)) in
  let pair label a b =
    match (index_of cfg a, index_of cfg b) with
    | Some a, Some b ->
      let w = wall a b and s = sim a b in
      [
        metric (Printf.sprintf "derived.%s.wall" label) w "ratio";
        metric (Printf.sprintf "derived.%s.sim" label) s "ratio";
        metric
          (Printf.sprintf "derived.%s.ordering_agrees" label)
          (if (w < 1.) = (s < 1.) then 1. else 0.)
          "bool";
      ]
    | _ -> []
  in
  pair "giantsan_over_asan" Backend.Giantsan Backend.Asan
  @ pair "giantsan_over_native" Backend.Giantsan Backend.Native

let per_layer cfg (inst : W.instance) ~untraced ~traced ~gc_majors ~inside
    ~outside =
  let nb = Array.length cfg.backends in
  let factor =
    float_of_int Yardstick.nominal_ps /. 1000. /. Stats.median (yards traced)
  in
  let per_call owner layer =
    let t = Spans.totals ~timed:true (Spans.slot ~owner layer) in
    ( ratio (corrected ~inside ~outside t *. factor) (float_of_int t.Spans.t_calls),
      fratio t.t_words t.t_calls )
  in
  let traced_ops i =
    float_of_int (inst.W.counts.(i).W.ops * List.length traced.r_batches.(i))
  in
  let acc = account ~nb ~inside ~outside ~total:(float_of_int (raw_total traced)) in
  let self owner layer =
    List.fold_left
      (fun a (o, l, v) -> if o = owner && l = layer then a +. v else a)
      0. acc.a_self
    *. factor
  in
  let setup_ms owner layer =
    let t = Spans.totals ~timed:false (Spans.slot ~owner layer) in
    corrected ~inside ~outside t *. factor /. 1e6
  in
  let backend i b =
    let n = W.backend_name b and c = inst.W.counts.(i) in
    let per_op x = fratio x c.W.ops in
    let create = Spans.totals ~timed:false (Spans.slot ~owner:i Spans.Create) in
    let access_ns, access_w = per_call i Spans.Access
    and cached_ns, cached_w = per_call i Spans.Cached_access
    and region_ns, region_w = per_call i Spans.Check_region in
    let m name value unit_ = metric (n ^ "." ^ name) value unit_ in
    [
      m "create.ms"
        (ratio (setup_ms i Spans.Create) (float_of_int create.Spans.t_calls))
        "ms";
      m "access.ns" access_ns "ns";
      m "access.words" access_w "words";
      m "cached_access.ns" cached_ns "ns";
      m "cached_access.words" cached_w "words";
      m "check_region.ns" region_ns "ns";
      m "check_region.words" region_w "words";
      m "malloc.ns" (fst (per_call i Spans.Malloc)) "ns";
      m "free.ns" (fst (per_call i Spans.Free)) "ns";
      m "restore.ns" (fst (per_call i Spans.Restore)) "ns";
      m "interp.self_ns_per_op" (ratio (self i Spans.Interp) (traced_ops i)) "ns";
      m "scenario.self_ns_per_exec"
        (ratio (self i Spans.Scenario) (traced_ops i))
        "ns";
      m "shadow_loads_per_op" (per_op c.W.loads) "count";
      m "shadow_stores_per_op" (per_op c.W.stores) "count";
      m "checks_per_op" (per_op (Counters.total_checks c.W.counters)) "count";
      m "minor_words_per_op" (per_op untraced.r_words.(i)) "words";
    ]
  in
  let per_setup layer = setup_ms nb layer /. float_of_int cfg.setups in
  let gs = Option.map (fun i -> inst.W.counts.(i)) (index_of cfg Backend.Giantsan) in
  let gs_stat f =
    match gs with Some c -> f c.W.counters | None -> 0.
  in
  let share f =
    match gs with
    | Some { W.stats = s; _ } ->
      fratio (f s)
        (s.Giantsan_analysis.Interp.x_plain + s.x_cached + s.x_eliminated)
    | None -> 0.
  in
  let untraced_ns = round_ns untraced and traced_ns = round_ns traced in
  List.concat (List.mapi backend (Array.to_list cfg.backends))
  @ [
      metric "specgen.ms" (per_setup Spans.Specgen) "ms";
      metric "instrument.ms" (per_setup Spans.Instrument) "ms";
      metric "instrument.eliminated_share" (share (fun s -> s.x_eliminated)) "share";
      metric "instrument.cached_share" (share (fun s -> s.x_cached)) "share";
      metric "giantsan.fast_path_ratio"
        (gs_stat (fun c -> fratio c.fast_checks c.region_checks))
        "share";
      metric "giantsan.word_path_ratio"
        (gs_stat (fun c -> fratio c.word_checks c.region_checks))
        "share";
      metric "giantsan.cache_hit_ratio"
        (gs_stat (fun c -> fratio c.cache_hits (c.cache_hits + c.cache_updates)))
        "share";
      metric "other.share" (ratio acc.a_other acc.a_total) "share";
      metric "trace.overhead_pct"
        (100. *. ((traced_ns /. untraced_ns) -. 1.))
        "%";
      metric "trace.span_cost_ns" ((inside +. outside) *. factor) "ns";
      metric "yardstick.ns" (Stats.median (yards untraced @ yards traced)) "ns";
      metric "gc.major_collections" (float_of_int gc_majors) "count";
    ]

let json_metrics ms =
  Json.Obj
    (List.map
       (fun m ->
         ( m.name,
           Json.Obj [ ("value", Json.Float m.value); ("unit", Json.Str m.unit_) ] ))
       ms)

let run cfg =
  let nb = Array.length cfg.backends in
  Spans.reset ();
  Spans.on := cfg.trace;
  let inst, setup_times = set_up cfg in
  Spans.on := false;
  (* start the rounds without the set-up's garbage, in a heap shrunk to
     what the instance holds, so that [peak_heap_mb] measures the rounds *)
  Gc.compact ();
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let untraced =
    run_rounds cfg inst
      ~seconds:(if cfg.trace then cfg.seconds /. 2. else cfg.seconds)
  in
  let gc_majors = (Gc.quick_stat ()).Gc.major_collections - majors0 in
  let traced =
    if cfg.trace then begin
      Spans.on := true;
      let r = run_rounds cfg inst ~seconds:(cfg.seconds /. 2.) in
      Spans.on := false;
      Some r
    end
    else None
  in
  let ops_samples = Array.init nb (ops_per_s inst untraced) in
  let ops_med = Array.map Stats.median ops_samples in
  let attempted = Array.fold_left ( + ) 0 inst.W.attempted
  and failed = Array.fold_left ( + ) 0 inst.W.failed in
  (* one list of metrics per backend, named "<backend>.<name>" *)
  let each f =
    List.concat
      (List.mapi
         (fun i b ->
           List.map
             (fun (name, value, unit_) ->
               metric (W.backend_name b ^ "." ^ name) value unit_)
             (f i b))
         (Array.to_list cfg.backends))
  in
  let e2e =
    (metric "setup_s" (Stats.median setup_times) "s"
    :: each (fun i _ -> [ ("ops_per_s", ops_med.(i), "ops/s") ]))
    @ each (fun i b ->
          if b.W.id = Backend.Native then []
          else [ ("sim_ns_per_op", sim_per_op inst.W.counts.(i), "sim_ns") ])
    @ [
        metric "peak_heap_mb"
          (float_of_int (untraced.r_peak_words * (Sys.word_size / 8))
          /. 1048576.)
          "MiB";
      ]
  in
  let info =
    metric "rounds" (float_of_int untraced.r_count) "count"
    :: metric "setup_s.q1" (Stats.percentile 0.25 setup_times) "s"
    :: metric "setup_s.q3" (Stats.percentile 0.75 setup_times) "s"
    :: metric "fail_rate" (fratio failed attempted) "share"
    :: each (fun i _ ->
           [
             ("ops_per_batch", float_of_int inst.W.counts.(i).W.ops, "count");
             ("ops_per_s.q1", Stats.percentile 0.25 ops_samples.(i), "ops/s");
             ("ops_per_s.q3", Stats.percentile 0.75 ops_samples.(i), "ops/s");
             ("fail_rate", fratio inst.W.failed.(i) inst.W.attempted.(i), "share");
           ])
    @ derived cfg inst ops_med
  in
  let metrics =
    match traced with
    | None -> e2e
    | Some traced ->
      let total, inside = Spans.span_cost () in
      per_layer cfg inst ~untraced ~traced ~gc_majors ~inside
        ~outside:(total -. inside)
  in
  let owner_name o =
    if o < nb then W.backend_name cfg.backends.(o) else "global"
  in
  let detail =
    Json.Obj
      ([
         ("workload", Json.Str cfg.workload.W.name);
         ("seed", Json.Int cfg.seed);
         ("trace", Json.Bool cfg.trace);
         ("metrics", json_metrics metrics);
         ("info", json_metrics info);
         ("setup_s", Json.List (List.map (fun t -> Json.Float t) setup_times));
         ( "batches",
           Json.Obj
             (List.mapi
                (fun i b ->
                  ( W.backend_name b,
                    Json.List
                      (List.rev_map
                         (fun b ->
                           Json.List
                             [ Json.Int b.b_ns; Json.Int b.b_norm; Json.Int b.b_yard_ps ])
                         untraced.r_batches.(i)) ))
                (Array.to_list cfg.backends)) );
       ]
      @ if cfg.trace then [ ("spans", Spans.log_json ~owner_name) ] else [])
  in
  { correct = failed = 0; attempted; failed; metrics; info; detail }

let result_json r =
  Json.Obj
    [
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("metrics", json_metrics r.metrics);
    ]
