(* The four workloads. Each drives the program only through its public
   entry points ([Specgen.generate], [Instrument.plan], [Interp.run],
   [Scenario.run_reports] and the [Sanitizer.t] fields), builds its inputs
   from the seed alone, and checks every output it times against an
   oracle computed before timing starts. *)

module Heap = Giantsan_memsim.Heap
module Arena = Giantsan_memsim.Arena
module Memobj = Giantsan_memsim.Memobj
module San = Giantsan_sanitizer.Sanitizer
module Counters = Giantsan_sanitizer.Counters
module Backend = Giantsan_policy.Backend
module Runner = Giantsan_workload.Runner
module Specgen = Giantsan_workload.Specgen
module Profiles = Giantsan_workload.Profiles
module Cost_model = Giantsan_workload.Cost_model
module Instrument = Giantsan_analysis.Instrument
module Interp = Giantsan_analysis.Interp
module Scenario = Giantsan_bugs.Scenario
module Difftest = Giantsan_bugs.Difftest
module Rng = Giantsan_util.Rng

type backend = { id : Backend.id; create : Heap.config -> San.t }

let backends =
  Array.map
    (fun id -> { id; create = Backend.create id })
    [| Backend.Native; Giantsan; Asan; Lfp; Pac |]

let backend_name b = Backend.name b.id

let runner_config = function
  | Backend.Native -> Runner.Native
  | Giantsan -> Runner.Giantsan
  | Asan -> Runner.Asan
  | Lfp -> Runner.Lfp
  | Pac -> Runner.Pac

(* A backend must catch a planted violation only where it claims full
   detection of that class. *)
let must_detect b cls = Backend.detection b.id cls = 2

(* Every generator draws from the run seed mixed with a per-use salt. *)
let mix ~seed salt = (seed * 1_000_003) + salt

(* {1 Event counts of one batch} *)

type counts = {
  mutable ops : int;  (** workload ops: the unit of [ops_per_s] *)
  mutable loads : int;  (** shadow loads *)
  mutable stores : int;  (** shadow stores *)
  counters : Counters.t;
  stats : Interp.exec_stats;  (** spec-sweep only *)
  mutable sim_ns : float;  (** [Cost_model.default] ns *)
}

let new_counts () =
  {
    ops = 0;
    loads = 0;
    stores = 0;
    counters = Counters.create ();
    stats =
      {
        Interp.x_plain = 0;
        x_plain_fast = 0;
        x_cached = 0;
        x_eliminated = 0;
        x_unchecked = 0;
      };
    sim_ns = 0.;
  }

let clear c =
  c.ops <- 0;
  c.loads <- 0;
  c.stores <- 0;
  Counters.reset c.counters;
  c.stats.Interp.x_plain <- 0;
  c.stats.x_plain_fast <- 0;
  c.stats.x_cached <- 0;
  c.stats.x_eliminated <- 0;
  c.stats.x_unchecked <- 0;
  c.sim_ns <- 0.

(* Fold what [san] did since its load/store counters read [loads0] and
   [stores0] into [c]. [native_ops] is the cost model's unit of native
   work (one interpreted op, or one checked memory access); [ops] is the
   workload's own op count. *)
let note c b (san : San.t) ~ops ~native_ops ~loads0 ~stores0 ~stack_fraction
    =
  let loads = san.San.shadow_loads () - loads0 in
  c.ops <- c.ops + ops;
  c.loads <- c.loads + loads;
  c.stores <- c.stores + san.San.shadow_stores () - stores0;
  Counters.add c.counters san.San.counters;
  c.sim_ns <-
    c.sim_ns
    +. Cost_model.simulated_ns
         {
           Cost_model.ops = native_ops;
           shadow_loads = loads;
           counters = san.San.counters;
           is_sanitized = b.id <> Backend.Native;
           is_lfp = b.id = Backend.Lfp;
           stack_fraction;
         }

(* {1 Workload interface} *)

type instance = {
  batch : int -> Spans.stopwatch -> unit;
      (** One batch of fixed work for backend [i]: its timed regions run
          under the stopwatch, its outputs are checked, and its events
          land in [counts.(i)]. *)
  counts : counts array;
  attempted : int array;
  failed : int array;
}

type t = {
  name : string;
  default_size : int;
      (** the workload's size knob at full scale (the test shrinks it) *)
  yard_iters : int;  (** yardstick iterations before each timed region *)
  setup : size:int -> seed:int -> backend array -> instance;
}

let make_instance backends run =
  let n = Array.length backends in
  let counts = Array.init n (fun _ -> new_counts ())
  and attempted = Array.make n 0
  and failed = Array.make n 0 in
  let rec inst =
    { batch = (fun i sw -> run inst i sw); counts; attempted; failed }
  in
  inst

let verdict i (inst : instance) ok =
  inst.attempted.(i) <- inst.attempted.(i) + 1;
  if not ok then inst.failed.(i) <- inst.failed.(i) + 1

let global_owner bs = Array.length bs

let create bs i cfg =
  Spans.enter (Spans.slot ~owner:i Spans.Create);
  let san = bs.(i).create cfg in
  Spans.leave ();
  san

(* A long-lived sanitizer per backend, snapshotted pristine: restoring it
   gives a state byte-identical to a freshly built one, without leaving a
   freshly built one's garbage for the collector to sweep inside the next
   timed region. The traced run uses the copy whose calls open spans. *)
let pristine bs cfg =
  Array.mapi
    (fun i _ ->
      let raw = create bs i cfg in
      raw.San.snapshot ();
      (raw, Spans.wrap ~owner:i raw))
    bs

let live (raw, wrapped) : San.t = if !Spans.on then wrapped else raw

let hit = function None -> false | Some _ -> true

(* {1 spec-sweep}

   The 24 Table-2 profiles at 4 times their phases, each instrumented with
   the backend's mode and interpreted on a sanitizer restored to pristine.
   The interpreter takes most of the time here, so this is where
   interpreter and static-plan changes show, and check-kernel changes
   show only at their real share. *)

let spec_phases = 48

let spec_sweep =
  let setup ~size ~seed bs =
    let g = global_owner bs in
    let cfg = Heap.default_config in
    let cells =
      List.filteri (fun k _ -> k < size) Profiles.all
      |> List.map (fun (p : Specgen.profile) ->
             let p =
               {
                 p with
                 Specgen.p_seed = mix ~seed p.Specgen.p_seed;
                 p_phases = spec_phases;
               }
             in
             Spans.enter (Spans.slot ~owner:g Spans.Specgen);
             let prog = Specgen.generate p in
             Spans.leave ();
             (p, prog))
    in
    let plan i prog =
      Spans.enter (Spans.slot ~owner:g Spans.Instrument);
      let plan =
        Instrument.plan (Runner.instrument_mode (runner_config bs.(i).id)) prog
      in
      Spans.leave ();
      plan
    in
    (* the oracle: the uninstrumented native interpretation *)
    let reference =
      List.map
        (fun (_, prog) ->
          let out =
            Interp.run
              (Backend.create Backend.Native cfg)
              (Instrument.plan Instrument.Native prog)
              prog
          in
          out.Interp.final_env)
        cells
    in
    (* LFP cannot build or run some projects (Table 2's CE/RE cells): those
       cells are not attempted *)
    let work =
      Array.mapi
        (fun i b ->
          Array.of_list
            (List.concat
               (List.map2
                  (fun (p, prog) env ->
                    if b.id = Backend.Lfp && p.Specgen.p_lfp_status <> `Ok then
                      []
                    else [ (p, prog, plan i prog, env) ])
                  cells reference)))
        bs
    in
    let sans = pristine bs cfg in
    make_instance bs (fun inst i sw ->
        let c = inst.counts.(i) in
        clear c;
        let raw, _ = sans.(i) and san = live sans.(i) in
        Array.iter
          (fun ((p : Specgen.profile), prog, plan, env) ->
            raw.San.restore ();
            let loads0 = raw.San.shadow_loads ()
            and stores0 = raw.San.shadow_stores () in
            Spans.start sw;
            Spans.enter (Spans.slot ~owner:i Spans.Interp);
            let out = Interp.run san plan prog in
            Spans.leave ();
            Spans.stop sw;
            verdict i inst
              ((not out.Interp.crashed)
              && (not out.out_of_memory)
              && (not out.fuel_exhausted)
              && out.reports = []
              && out.final_env = env);
            let s = out.stats in
            c.stats.x_plain <- c.stats.x_plain + s.Interp.x_plain;
            c.stats.x_plain_fast <- c.stats.x_plain_fast + s.x_plain_fast;
            c.stats.x_cached <- c.stats.x_cached + s.x_cached;
            c.stats.x_eliminated <- c.stats.x_eliminated + s.x_eliminated;
            c.stats.x_unchecked <- c.stats.x_unchecked + s.x_unchecked;
            note c bs.(i) raw ~ops:out.ops ~native_ops:out.ops ~loads0
              ~stores0 ~stack_fraction:p.p_stack_fraction)
          work.(i))
  in
  {
    name = "spec-sweep";
    default_size = List.length Profiles.all;
    yard_iters = 100_000;
    setup;
  }

(* {1 traversal}

   One 256 KiB buffer per backend and, per batch, the three cached passes
   of Figure 11 and §5.4 (forward, seeded random, reverse from a high
   anchor) plus a pass of seeded region checks with one planted
   out-of-bounds span. No interpreter and no allocation in the timed loop:
   dispatch, the folded region check, the MRU window cache and shadow
   loads take most of the time, so hot-path changes show at full size. *)

let traversal =
  let setup ~size ~seed bs =
    let bytes = size * 1024 in
    let n = bytes / 8 in
    let rng = Rng.create (mix ~seed 1) in
    let values = Array.init n (fun _ -> Rng.int rng (1 lsl 40)) in
    let random = Array.init n (fun _ -> 8 * Rng.int rng n) in
    let regions = max 16 (n / 32) in
    let planted = Rng.int rng regions in
    let max_len = min bytes 16384 in
    let region_lo = Array.make regions 0 and region_hi = Array.make regions 0 in
    for r = 0 to regions - 1 do
      (* lengths log-uniform in [8, max_len], stratified so that every seed
         checks the same spectrum of lengths *)
      let u = (float_of_int r +. Rng.float rng 1.) /. float_of_int regions in
      let len = int_of_float (8. *. Float.pow (float_of_int max_len /. 8.) u) in
      let len = max 8 (min max_len len) in
      let lo =
        if r = planted then bytes - len + 1 + Rng.int rng 8
        else Rng.int rng (bytes - len + 1)
      in
      region_lo.(r) <- lo;
      region_hi.(r) <- lo + len
    done;
    (* what native returns: the three passes' sums *)
    let expected =
      let s = ref 0 in
      Array.iter (fun v -> s := !s + v + v) values;
      Array.iter (fun off -> s := !s + values.(off / 8)) random;
      !s
    in
    let cfg = Heap.default_config in
    let sans =
      Array.mapi
        (fun i _ ->
          let raw = create bs i cfg in
          let obj = raw.San.malloc bytes in
          let base = obj.Memobj.base in
          let arena = Heap.arena raw.San.heap in
          Array.iteri
            (fun j v -> Arena.store arena ~addr:(base + (8 * j)) ~width:8 v)
            values;
          (raw, Spans.wrap ~owner:i raw, base))
        bs
    in
    let ops = (3 * n) + 3 + regions in
    make_instance bs (fun inst i sw ->
        let raw, wrapped, base = sans.(i) in
        let san = live (raw, wrapped) in
        let arena = Heap.arena raw.San.heap in
        Counters.reset raw.San.counters;
        let loads0 = raw.San.shadow_loads ()
        and stores0 = raw.San.shadow_stores () in
        let sum = ref 0 and reports = ref 0 and missed = ref false in
        Spans.start sw;
        let cache = san.San.new_cache ~base in
        for j = 0 to n - 1 do
          if hit (san.San.cached_access cache ~off:(8 * j) ~width:8) then
            incr reports;
          sum := !sum + Arena.load arena ~addr:(base + (8 * j)) ~width:8
        done;
        if hit (san.San.flush_cache cache) then incr reports;
        Spans.split sw;
        let cache = san.San.new_cache ~base in
        for j = 0 to n - 1 do
          let off = Array.unsafe_get random j in
          if hit (san.San.cached_access cache ~off ~width:8) then
            incr reports;
          sum := !sum + Arena.load arena ~addr:(base + off) ~width:8
        done;
        if hit (san.San.flush_cache cache) then incr reports;
        Spans.split sw;
        let anchor = base + (8 * (n - 1)) in
        let cache = san.San.new_cache ~base:anchor in
        for j = 0 to n - 1 do
          if hit (san.San.cached_access cache ~off:(-8 * j) ~width:8) then
            incr reports;
          sum := !sum + Arena.load arena ~addr:(anchor - (8 * j)) ~width:8
        done;
        if hit (san.San.flush_cache cache) then incr reports;
        Spans.split sw;
        for r = 0 to regions - 1 do
          let found =
            hit
              (san.San.check_region
                 ~lo:(base + Array.unsafe_get region_lo r)
                 ~hi:(base + Array.unsafe_get region_hi r))
          in
          if r = planted then missed := not found
          else if found then incr reports
        done;
        Spans.stop sw;
        verdict i inst
          (!reports = 0 && !sum = expected
          && not (!missed && must_detect bs.(i) Backend.Oob));
        let c = inst.counts.(i) in
        clear c;
        note c bs.(i) raw ~ops ~native_ops:ops ~loads0 ~stores0
          ~stack_fraction:0.)
  in
  { name = "traversal"; default_size = 256; yard_iters = 75_000; setup }

(* {1 alloc-churn}

   A seeded malloc/free stream over 512 slots, sizes log-uniform in
   [8 B, 8 KiB]; each malloc is followed by accesses to the block's first
   and last byte, and one op in 256 is a planted violation. This is the
   write side of the metadata plane (poisoning), next to traversal's read
   side: a faster check that costs more poisoning shows here. *)

let churn_slots = 512

(* ops per timed region: each gets its own yardstick sample *)
let churn_region = 256

(* op kinds *)
let k_malloc = 0
let k_free = 1

(* planted classes *)
let p_clean = 0
let p_overflow = 1
let p_uaf = 2
let p_double_free = 3

let churn_heap =
  { Heap.arena_size = 1536 * 1024; redzone = 16; quarantine_budget = 256 * 1024 }

let alloc_churn =
  let setup ~size ~seed bs =
    let rng = Rng.create (mix ~seed 2) in
    let kind = Array.make size 0
    and slot = Array.make size 0
    and bytes = Array.make size 0
    and planted = Array.make size p_clean in
    let occupied = Array.make churn_slots false in
    let find_slot want =
      let s0 = Rng.int rng churn_slots in
      let rec go k =
        let s = (s0 + k) mod churn_slots in
        if occupied.(s) = want then s else go (k + 1)
      in
      go 0
    in
    let k = ref 0 in
    let emit kd s sz p =
      if !k < size then begin
        kind.(!k) <- kd;
        slot.(!k) <- s;
        bytes.(!k) <- sz;
        planted.(!k) <- p;
        incr k
      end
    in
    (* sizes log-uniform in [8, 8192), stratified: every 256 mallocs draw
       once from each of 256 equal slices of the log range, in seeded order,
       so that every seed allocates nearly the same bytes *)
    let deck = Array.init 256 Fun.id and dealt = ref 256 in
    let log_size () =
      if !dealt = 256 then begin
        Rng.shuffle rng deck;
        dealt := 0
      end;
      let u = (float_of_int deck.(!dealt) +. Rng.float rng 1.) /. 256. in
      incr dealt;
      int_of_float (8. *. Float.pow 1024. u)
    in
    while !k < size do
      if !k mod 256 = 128 then begin
        match Rng.int rng 3 with
        | 0 ->
          let s = find_slot false in
          occupied.(s) <- true;
          emit k_malloc s (log_size ()) p_overflow
        | 1 ->
          let s = find_slot true in
          occupied.(s) <- false;
          emit k_free s 0 p_uaf
        | _ ->
          let s = find_slot true in
          occupied.(s) <- false;
          emit k_free s 0 p_clean;
          emit k_free s 0 p_double_free
      end
      else begin
        let s = Rng.int rng churn_slots in
        if occupied.(s) then begin
          occupied.(s) <- false;
          emit k_free s 0 p_clean
        end
        else begin
          occupied.(s) <- true;
          emit k_malloc s (log_size ()) p_clean
        end
      end
    done;
    let required =
      Array.map
        (fun b ->
          [|
            false;
            must_detect b Backend.Oob;
            must_detect b Backend.Uaf;
            must_detect b Backend.Double_free;
          |])
        bs
    in
    let accesses =
      Array.fold_left (fun a kd -> if kd = k_malloc then a + 2 else a) 0 kind
    in
    let bases = Array.map (fun _ -> Array.make churn_slots 0) bs in
    let sans = pristine bs churn_heap in
    make_instance bs (fun inst i sw ->
        let raw, _ = sans.(i) and san = live sans.(i) in
        raw.San.restore ();
        let base_of = bases.(i) and required = required.(i) in
        let loads0 = raw.San.shadow_loads ()
        and stores0 = raw.San.shadow_stores () in
        let bad = ref 0 in
        Spans.start sw;
        for op = 0 to size - 1 do
          if op > 0 && op mod churn_region = 0 then Spans.split sw;
          let s = Array.unsafe_get slot op
          and p = Array.unsafe_get planted op in
          let reported =
            if Array.unsafe_get kind op = k_malloc then begin
              let n = Array.unsafe_get bytes op in
              let b = (san.San.malloc n).Memobj.base in
              Array.unsafe_set base_of s b;
              let last = if p = p_overflow then b + n else b + n - 1 in
              let r1 = hit (san.San.access ~base:b ~addr:b ~width:1) in
              hit (san.San.access ~base:b ~addr:last ~width:1) || r1
            end
            else begin
              let b = Array.unsafe_get base_of s in
              let r = hit (san.San.free b) in
              if p = p_uaf then
                hit (san.San.access ~base:b ~addr:b ~width:1) || r
              else r
            end
          in
          if
            if p = p_clean then reported
            else Array.unsafe_get required p && not reported
          then incr bad
        done;
        Spans.stop sw;
        inst.attempted.(i) <- inst.attempted.(i) + size;
        inst.failed.(i) <- inst.failed.(i) + !bad;
        let c = inst.counts.(i) in
        clear c;
        note c bs.(i) raw ~ops:size ~native_ops:accesses ~loads0 ~stores0
          ~stack_fraction:0.)
  in
  { name = "alloc-churn"; default_size = 2048; yard_iters = 32_000; setup }

(* {1 fuzz-persistent}

   A seeded Difftest batch, half clean and half carrying one of the six
   violations, run on one long-lived sanitizer per backend with the
   fuzzer's heap: snapshot once, then each exec is [run_reports] followed
   by [restore]. Restore is more than half of each exec; this is the only
   workload that times snapshot/restore and the dirty-segment journal. *)

(* execs per timed region *)
let fuzz_region = 64

let fuzz_heap =
  { Heap.arena_size = 32 * 1024; redzone = 16; quarantine_budget = 16 * 1024 }

let violations =
  [|
    Difftest.V_overflow;
    V_underflow;
    V_far_jump;
    V_uaf;
    V_double_free;
    V_mid_free;
  |]

let fuzz_persistent =
  let setup ~size ~seed bs =
    let nb = Array.length bs in
    (* the oracle: each scenario's verdict once per backend on a fresh
       sanitizer; scenarios that cannot execute on every backend are left
       out of the batch *)
    let fresh sc =
      Array.init nb (fun i ->
          match Scenario.run_reports (create bs i fuzz_heap) sc with
          | reports -> Some (reports <> [])
          | exception (Failure _ | Out_of_memory) -> None)
    in
    let rec collect acc n k =
      if n = size then Array.of_list (List.rev acc)
      else
        let s = mix ~seed (100_000 + k) in
        let sc =
          if k mod 2 = 0 then Difftest.gen_clean ~seed:s
          else Difftest.gen_buggy ~seed:s violations.(k / 2 mod 6)
        in
        let runs = fresh sc in
        if Array.for_all Option.is_some runs then
          collect ((sc, Array.map Option.get runs) :: acc) (n + 1) (k + 1)
        else collect acc n (k + 1)
    in
    let batch = collect [] 0 0 in
    let scenarios = Array.map fst batch in
    let truth = Array.map Scenario.ground_truth scenarios in
    let expected = Array.init nb (fun i -> Array.map (fun (_, r) -> r.(i)) batch) in
    let steps =
      Array.fold_left
        (fun a sc -> a + List.length sc.Scenario.sc_steps)
        0 scenarios
    in
    let sans = pristine bs fuzz_heap in
    make_instance bs (fun inst i sw ->
        let raw, _ = sans.(i) and san = live sans.(i) in
        let expected = expected.(i) in
        let scenario = Spans.slot ~owner:i Spans.Scenario in
        let c = inst.counts.(i) in
        clear c;
        let bad = ref 0 in
        Spans.start sw;
        for k = 0 to size - 1 do
          if k > 0 && k mod fuzz_region = 0 then Spans.split sw;
          let loads0 = raw.San.shadow_loads ()
          and stores0 = raw.San.shadow_stores () in
          Spans.enter scenario;
          let reported =
            match Scenario.run_reports san (Array.unsafe_get scenarios k) with
            | [] -> false
            | _ :: _ -> true
          in
          Spans.leave ();
          (* the exec's events, before restore rolls the counters back *)
          c.loads <- c.loads + raw.San.shadow_loads () - loads0;
          c.stores <- c.stores + raw.San.shadow_stores () - stores0;
          Counters.add c.counters raw.San.counters;
          san.San.restore ();
          if
            reported <> Array.unsafe_get expected k
            || (reported && not (Array.unsafe_get truth k))
          then incr bad
        done;
        Spans.stop sw;
        inst.attempted.(i) <- inst.attempted.(i) + size;
        inst.failed.(i) <- inst.failed.(i) + !bad;
        c.ops <- size;
        (* the cost model is linear, so pricing the batch's summed events
           equals summing each exec's price *)
        c.sim_ns <-
          Cost_model.simulated_ns
            {
              Cost_model.ops = steps;
              shadow_loads = c.loads;
              counters = c.counters;
              is_sanitized = bs.(i).id <> Backend.Native;
              is_lfp = bs.(i).id = Backend.Lfp;
              stack_fraction = 0.;
            })
  in
  { name = "fuzz-persistent"; default_size = 1024; yard_iters = 32_000; setup }

let all = [ spec_sweep; traversal; alloc_churn; fuzz_persistent ]

let find name = List.find_opt (fun w -> w.name = name) all
