module Rng = Giantsan_util.Rng
module Table = Giantsan_util.Table
module Memsim = Giantsan_memsim
module Heap = Memsim.Heap
module Shadow_mem = Giantsan_shadow.Shadow_mem
module State_code = Giantsan_core.State_code
module Folding = Giantsan_core.Folding
module Gs_runtime = Giantsan_core.Gs_runtime
module San = Giantsan_sanitizer.Sanitizer
module Report = Giantsan_sanitizer.Report
module Scenario = Giantsan_bugs.Scenario
module Difftest = Giantsan_bugs.Difftest
module Pool = Giantsan_parallel.Pool
module Corpus = Giantsan_fuzz.Corpus
module Exec = Giantsan_fuzz.Exec
module Corpus_tools = Giantsan_report.Corpus_tools
module Export = Giantsan_telemetry.Export
module Metric = Giantsan_telemetry.Metric

type outcome = Detected | Degraded | Tolerated | Silent

let outcome_name = function
  | Detected -> "detected"
  | Degraded -> "degraded"
  | Tolerated -> "tolerated"
  | Silent -> "SILENT"

type stats = {
  mutable faults_injected : int;
  mutable faults_detected : int;
  mutable runs_degraded : int;
  mutable faults_tolerated : int;
  mutable silent_corruptions : int;
}

let stats_spec : stats Metric.spec =
  [
    Metric.field "faults_injected"
      (fun s -> s.faults_injected)
      (fun s v -> s.faults_injected <- v);
    Metric.field "faults_detected"
      (fun s -> s.faults_detected)
      (fun s v -> s.faults_detected <- v);
    Metric.field "runs_degraded"
      (fun s -> s.runs_degraded)
      (fun s v -> s.runs_degraded <- v);
    Metric.field "faults_tolerated"
      (fun s -> s.faults_tolerated)
      (fun s v -> s.faults_tolerated <- v);
    Metric.field "silent_corruptions"
      (fun s -> s.silent_corruptions)
      (fun s v -> s.silent_corruptions <- v);
  ]

let fresh_stats () =
  {
    faults_injected = 0;
    faults_detected = 0;
    runs_degraded = 0;
    faults_tolerated = 0;
    silent_corruptions = 0;
  }

type result_row = {
  r_cell : Fault.cell;
  r_outcome : outcome;
  r_detail : string;
}

exception Chaos_task of int

(* Cell arena: every cell builds a private sanitizer, so cells share no
   mutable state and Pool.map over them is race-free by construction. *)
let cell_config =
  { Heap.arena_size = 32 * 1024; redzone = 16; quarantine_budget = 16 * 1024 }

(* Scenario steps run through Scenario.exec_step, the executor
   Scenario.run_reports folds over. The planes hold the slot table
   themselves because they stop mid-scenario, corrupt the shadow, and go
   on with a self-check after every later step; they judge by the audit,
   so the reports are dropped. *)
let step san (sc : Scenario.t) slots s =
  ignore (Scenario.exec_step san ~sc_id:sc.Scenario.sc_id slots [] s)

let split_at k l =
  let rec go k acc = function
    | rest when k = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> go (k - 1) (x :: acc) rest
  in
  go k [] l

let candidates shadow pred =
  let n = Shadow_mem.segments shadow in
  let out = ref [] in
  for seg = n - 1 downto 0 do
    if pred (Shadow_mem.peek shadow seg) then out := seg :: !out
  done;
  Array.of_list !out

let first_mismatch heap shadow =
  match Selfcheck.run ~heap ~shadow with
  | [] -> None
  | m :: _ as all -> Some (List.length all, m)

(* ---------- plane 1: shadow corruption ---------- *)

(* Run the scenario up to the injection point, corrupt the shadow (or arm
   the misfold plan), then keep executing with a shadow-vs-oracle audit
   after every remaining step. The contract: the audit flags the
   corruption; it is never silently absorbed into a verdict. *)
let run_shadow_cell (cell : Fault.cell) fault =
  let sc = Difftest.gen_clean ~seed:cell.Fault.scenario_seed in
  let san, shadow = Gs_runtime.create_exposed cell_config in
  let heap = san.San.heap in
  let slots = Scenario.slots () in
  let pre, post = split_at cell.Fault.inject_after sc.Scenario.sc_steps in
  List.iter (step san sc slots) pre;
  (match first_mismatch heap shadow with
  | Some (_, m) ->
    failwith ("chaos: shadow inconsistent before injection: "
              ^ Selfcheck.mismatch_to_string m)
  | None -> ());
  let finish_clean () =
    List.iter (step san sc slots) post
  in
  let audit_post fault_plan =
    (* execute the tail with the audit after every step; first flag wins *)
    let flagged = ref None in
    Folding.with_fault fault_plan (fun () ->
        List.iter
          (fun s ->
            step san sc slots s;
            if !flagged = None then flagged := first_mismatch heap shadow)
          post);
    !flagged
  in
  match fault with
  | Fault.Bit_flip { pick; mask } ->
    let seg = pick mod Shadow_mem.segments shadow in
    let old = Shadow_mem.peek shadow seg in
    Shadow_mem.poke shadow seg (old lxor (mask land 0xff));
    (match first_mismatch heap shadow with
    | Some (n, m) ->
      finish_clean ();
      (Detected,
       Printf.sprintf "%d mismatch(es); %s" n (Selfcheck.mismatch_to_string m))
    | None -> (Silent, Printf.sprintf "bit flip at seg %d unflagged" seg))
  | Fault.Stale_free { pick } -> (
    let cands = candidates shadow (fun c -> not (State_code.is_error c)) in
    if Array.length cands = 0 then
      (Tolerated, "no live segment to corrupt at injection point")
    else
      let seg = cands.(pick mod Array.length cands) in
      Shadow_mem.poke shadow seg State_code.freed;
      match first_mismatch heap shadow with
      | Some (n, m) ->
        finish_clean ();
        (Detected,
         Printf.sprintf "%d mismatch(es); %s" n (Selfcheck.mismatch_to_string m))
      | None -> (Silent, Printf.sprintf "stale free code at seg %d unflagged" seg))
  | Fault.Overclaim_code { pick } -> (
    let cands = candidates shadow State_code.is_error in
    if Array.length cands = 0 then
      (Tolerated, "no guarded segment to overclaim at injection point")
    else
      let seg = cands.(pick mod Array.length cands) in
      Shadow_mem.poke shadow seg State_code.good;
      match first_mismatch heap shadow with
      | Some (n, m) ->
        finish_clean ();
        (Detected,
         Printf.sprintf "%d mismatch(es); %s" n (Selfcheck.mismatch_to_string m))
      | None -> (Silent, Printf.sprintf "overclaim at seg %d unflagged" seg))
  | Fault.Misfold { degree } -> (
    let exercised =
      List.exists
        (function Scenario.Alloc { size; _ } -> size >= 8 | _ -> false)
        post
    in
    match audit_post (Some (Folding.Overstate_last degree)) with
    | Some (n, m) ->
      (Detected,
       Printf.sprintf "%d mismatch(es); %s" n (Selfcheck.mismatch_to_string m))
    | None ->
      if exercised then (Silent, "misfolded poisoning unflagged")
      else (Tolerated, "no foldable allocation after injection"))
  | Fault.Journal_drop { pick } -> (
    (* the fuzz-mode restore path: snapshot at the injection point, run
       the scenario tail (every store journals its dirty range), steal one
       journal entry, restore. The heap and oracle rewind fully but the
       stolen range keeps its post-snapshot shadow bytes, so the
       shadow-vs-oracle selfcheck must flag the under-repair — unless the
       stolen range happened to hold the same bytes as the snapshot, in
       which case a clean audit is the correct verdict, not a miss. *)
    if post = [] then
      (Tolerated, "no steps after injection to dirty the journal")
    else begin
      san.San.snapshot ();
      List.iter (step san sc slots) post;
      match Shadow_mem.chaos_drop_journal shadow ~pick with
      | None -> (Tolerated, "journal empty at the restore point")
      | Some (lo, len) -> (
        san.San.restore ();
        match first_mismatch heap shadow with
        | Some (n, m) ->
          (Detected,
           Printf.sprintf
             "restore under-repaired segs [%d, +%d): %d mismatch(es); %s" lo
             len n
             (Selfcheck.mismatch_to_string m))
        | None ->
          (Tolerated,
           Printf.sprintf
             "stolen range [%d, +%d) matched the snapshot bytes" lo len))
    end)

(* ---------- plane 2: allocator pressure ---------- *)

let run_alloc_cell (cell : Fault.cell) fault =
  let audit_tail san shadow =
    match first_mismatch san.San.heap shadow with
    | None -> Ok ()
    | Some (_, m) -> Error (Selfcheck.mismatch_to_string m)
  in
  match fault with
  | Fault.Oom_at n -> (
    let sc = Difftest.gen_clean ~seed:cell.Fault.scenario_seed in
    let mallocs =
      List.length
        (List.filter
           (function Scenario.Alloc _ -> true | _ -> false)
           sc.Scenario.sc_steps)
    in
    let san, shadow = Gs_runtime.create_exposed cell_config in
    Heap.chaos_oom_after san.San.heap n;
    let slots = Scenario.slots () in
    match
      List.iter (step san sc slots) sc.Scenario.sc_steps
    with
    | () ->
      Heap.chaos_oom_after san.San.heap (-1);
      if n >= mallocs then
        (Tolerated,
         Printf.sprintf "countdown %d beyond the scenario's %d mallocs" n mallocs)
      else (Silent, "armed OOM never raised")
    | exception Out_of_memory -> (
      match audit_tail san shadow with
      | Ok () ->
        (Degraded,
         Printf.sprintf "Out_of_memory at malloc %d/%d; shadow audit clean" n
           mallocs)
      | Error m -> (Silent, "shadow inconsistent after OOM: " ^ m)))
  | Fault.Tiny_arena arena -> (
    let config = { Heap.arena_size = arena; redzone = 16; quarantine_budget = 512 } in
    let san, shadow = Gs_runtime.create_exposed config in
    let rng = Rng.create cell.Fault.scenario_seed in
    let live = ref [] in
    match
      for _ = 1 to 48 do
        let obj = san.San.malloc (16 + (8 * Rng.int rng 24)) in
        live := obj.Memsim.Memobj.base :: !live;
        if Rng.bool rng then (
          match !live with
          | b :: rest ->
            live := rest;
            ignore (san.San.free b)
          | [] -> ())
      done
    with
    | () -> (
      let flushes = Heap.pressure_flushes san.San.heap in
      match audit_tail san shadow with
      | Ok () ->
        (Degraded,
         Printf.sprintf "%d pressure flush(es) absorbed the squeeze; audit clean"
           flushes)
      | Error m -> (Silent, "shadow inconsistent under pressure: " ^ m))
    | exception Out_of_memory -> (
      match audit_tail san shadow with
      | Ok () ->
        (Degraded,
         Printf.sprintf
           "Out_of_memory after %d pressure flush(es); diagnostic raised, audit clean"
           (Heap.pressure_flushes san.San.heap))
      | Error m -> (Silent, "shadow inconsistent after arena OOM: " ^ m)))
  | Fault.Quarantine_thrash { budget; churn } -> (
    let config =
      { Heap.arena_size = 32 * 1024; redzone = 16; quarantine_budget = budget }
    in
    let san, shadow = Gs_runtime.create_exposed config in
    for _ = 1 to churn do
      let obj = san.San.malloc 48 in
      ignore (san.San.free obj.Memsim.Memobj.base)
    done;
    let victim = san.San.malloc 48 in
    ignore (san.San.free victim.Memsim.Memobj.base);
    let uaf =
      san.San.access ~base:victim.Memsim.Memobj.base
        ~addr:(victim.Memsim.Memobj.base + 8) ~width:1
    in
    match (uaf, audit_tail san shadow) with
    | Some r, Ok () ->
      (Degraded,
       Printf.sprintf "%s still caught after %d churns (bypasses=%d); audit clean"
         (Report.kind_name r.Report.kind)
         churn
         (Heap.quarantine_bypasses san.San.heap))
    | None, _ -> (Silent, "use-after-free lost to quarantine thrash")
    | Some _, Error m -> (Silent, "shadow inconsistent after thrash: " ^ m))
  | Fault.Fragmentation { allocs; size } -> (
    let arena = (allocs * (size + 32)) + 1024 in
    let config = { Heap.arena_size = arena; redzone = 16; quarantine_budget = 0 } in
    let san, shadow = Gs_runtime.create_exposed config in
    let bases = Array.init allocs (fun _ -> (san.San.malloc size).Memsim.Memobj.base) in
    Array.iteri (fun i b -> if i mod 2 = 0 then ignore (san.San.free b)) bases;
    match
      for _ = 1 to allocs do
        ignore (san.San.malloc (size / 4))
      done
    with
    | () -> (
      match audit_tail san shadow with
      | Ok () ->
        (Tolerated,
         Printf.sprintf "fit-path reuse over %d holes; shadow audit clean"
           ((allocs + 1) / 2))
      | Error m -> (Silent, "shadow inconsistent after fragmentation: " ^ m))
    | exception Out_of_memory -> (
      match audit_tail san shadow with
      | Ok () -> (Degraded, "fragmented arena exhausted; diagnostic raised, audit clean")
      | Error m -> (Silent, "shadow inconsistent after fragmentation OOM: " ^ m)))

(* ---------- plane 3: execution faults ---------- *)

let run_exec_cell (cell : Fault.cell) fault =
  match fault with
  | Fault.Task_raise { at; tasks; jobs } -> (
    (* two failing indices: the pool must re-raise the lowest one
       regardless of scheduling *)
    let work =
      Array.init tasks (fun i () ->
          if i = at || i = tasks - 1 then raise (Chaos_task i) else i * i)
    in
    match Pool.run ~jobs work with
    | _ -> (Silent, "poisoned pool returned results")
    | exception Chaos_task i ->
      if i = at then
        (Degraded,
         Printf.sprintf "lowest-index exception (task %d of %d) re-raised at jobs=%d"
           at tasks jobs)
      else
        (Silent,
         Printf.sprintf "nondeterministic exception: task %d instead of %d" i at))
  | Fault.Pathological_shard { heavy; repeat; jobs } ->
    let tasks = 8 in
    let work k =
      let rng = Rng.create (cell.Fault.scenario_seed + k) in
      let rounds = if k = heavy then repeat * 64 else repeat in
      let acc = ref 0 in
      for _ = 1 to rounds do
        acc := (!acc * 31) + Rng.int rng 1024
      done;
      !acc
    in
    let serial = Pool.run ~jobs:1 (Array.init tasks (fun k () -> work k)) in
    let parallel = Pool.run ~jobs (Array.init tasks (fun k () -> work k)) in
    if serial = parallel then
      (Tolerated,
       Printf.sprintf "shard %d skewed 64x; results identical at jobs=%d" heavy jobs)
    else (Silent, "parallel results diverged from serial under skew")

(* ---------- plane 4: input faults ---------- *)

let run_input_cell prepared (cell : Fault.cell) fault =
  match fault with
  | Fault.Corrupt_corpus { seed } -> (
    let violations =
      [| Difftest.V_overflow; V_underflow; V_far_jump; V_uaf; V_double_free;
         V_mid_free |]
    in
    let sc =
      Difftest.gen_buggy ~seed:cell.Fault.scenario_seed
        violations.(seed mod Array.length violations)
    in
    let mutation, bad = Corpus_tools.corrupt_text ~seed (Corpus.to_string sc) in
    match Corpus.of_string bad with
    | Error e -> (Detected, Printf.sprintf "%s rejected: %s" mutation e)
    | Ok sc' -> (
      match Scenario.validate sc' with
      | Ok () ->
        (Tolerated,
         Printf.sprintf "%s left a label-consistent scenario (%d steps)" mutation
           (List.length sc'.Scenario.sc_steps))
      | Error e -> (Silent, Printf.sprintf "%s accepted inconsistent input: %s" mutation e)))
  | Fault.Corrupt_ndjson { seed } -> (
    let text =
      match List.assoc_opt cell.Fault.cell_id prepared with
      | Some t -> t
      | None -> failwith "chaos: ndjson input not prepared"
    in
    let mutation, bad = Corpus_tools.corrupt_text ~seed text in
    match Export.check_ndjson bad with
    | Error e -> (Detected, Printf.sprintf "%s rejected: %s" mutation e)
    | Ok n ->
      (Tolerated, Printf.sprintf "%s left %d valid event line(s)" mutation n))

(* ---------- matrix driver ---------- *)

(* NDJSON victims are captured serially before the parallel phase: the
   telemetry tracer is a global sink, and two cells tracing concurrently
   would interleave events and break byte-determinism across --jobs. *)
let prepare_inputs cells =
  List.filter_map
    (fun (cell : Fault.cell) ->
      match cell.Fault.spec with
      | Fault.F_input (Fault.Corrupt_ndjson _) ->
        let sc = Difftest.gen_clean ~seed:cell.Fault.scenario_seed in
        Some (cell.Fault.cell_id, String.concat "\n" (Exec.capture_trace sc))
      | _ -> None)
    cells

let run_cell prepared (cell : Fault.cell) =
  let outcome, detail =
    try
      match cell.Fault.spec with
      | Fault.F_shadow f -> run_shadow_cell cell f
      | Fault.F_alloc f -> run_alloc_cell cell f
      | Fault.F_exec f -> run_exec_cell cell f
      | Fault.F_input f -> run_input_cell prepared cell f
    with e -> (Silent, "uncaught exception: " ^ Printexc.to_string e)
  in
  { r_cell = cell; r_outcome = outcome; r_detail = detail }

let tally stats rows =
  List.iter
    (fun row ->
      stats.faults_injected <- stats.faults_injected + 1;
      match row.r_outcome with
      | Detected -> stats.faults_detected <- stats.faults_detected + 1
      | Degraded -> stats.runs_degraded <- stats.runs_degraded + 1
      | Tolerated -> stats.faults_tolerated <- stats.faults_tolerated + 1
      | Silent -> stats.silent_corruptions <- stats.silent_corruptions + 1)
    rows

(* jobs is deliberately absent from the rendered report: the output must
   diff clean across --jobs values (the CI determinism leg relies on it) *)
let render_round buf ~seed rows =
  Buffer.add_string buf (Printf.sprintf "chaos matrix seed=%d\n" seed);
  let header = [ "cell"; "plane"; "fault"; "outcome"; "detail" ] in
  let table_rows =
    List.map
      (fun row ->
        [
          row.r_cell.Fault.cell_id;
          Fault.plane_name row.r_cell.Fault.plane;
          Fault.spec_name row.r_cell.Fault.spec;
          outcome_name row.r_outcome;
          row.r_detail;
        ])
      rows
  in
  Buffer.add_string buf
    (Table.render
       ~aligns:[ Table.Left; Table.Left; Table.Left; Table.Left; Table.Left ]
       (header :: table_rows))

let run_round ~seed ~jobs =
  let cells = Fault.matrix ~seed in
  let prepared = prepare_inputs cells in
  let rows = Pool.map ~jobs (run_cell prepared) cells in
  rows

let contract_held stats = stats.silent_corruptions = 0

let run ?(soak = 1) ~seed ~jobs () =
  let soak = max 1 soak in
  let buf = Buffer.create 4096 in
  let total = fresh_stats () in
  let seeds =
    (* explicit recursion: List.init's evaluation order is unspecified and
       the rng draws must happen in round order *)
    let rng = Rng.create seed in
    let rec go i acc =
      if i = soak then List.rev acc
      else
        go (i + 1) ((if i = 0 then seed else Rng.int rng 0x3FFFFFFF) :: acc)
    in
    go 0 []
  in
  List.iteri
    (fun i round_seed ->
      if i > 0 then Buffer.add_char buf '\n';
      if soak > 1 then
        Buffer.add_string buf (Printf.sprintf "-- soak round %d/%d --\n" (i + 1) soak);
      let rows = run_round ~seed:round_seed ~jobs in
      let round = fresh_stats () in
      tally round rows;
      Metric.add stats_spec total round;
      render_round buf ~seed:round_seed rows;
      Buffer.add_string buf
        (String.concat " "
           (List.map
              (fun (k, v) -> Printf.sprintf "%s=%d" k v)
              (Metric.to_assoc stats_spec round)));
      Buffer.add_char buf '\n')
    seeds;
  if soak > 1 then (
    Buffer.add_string buf
      (Printf.sprintf "\nsoak total over %d round(s): %s\n" soak
         (String.concat " "
            (List.map
               (fun (k, v) -> Printf.sprintf "%s=%d" k v)
               (Metric.to_assoc stats_spec total)))));
  Buffer.add_string buf
    (if contract_held total then
       "contract: HELD (every fault detected, degraded or tolerated)\n"
     else
       Printf.sprintf "contract: VIOLATED (%d silent corruption(s))\n"
         total.silent_corruptions);
  (Buffer.contents buf, contract_held total)
