module Rng = Giantsan_util.Rng

(* Plane 1: shadow corruption. Applied to the live GiantSan shadow after a
   scheduled step of the victim scenario. [pick] indexes into the
   deterministic candidate list the engine builds at injection time. *)
type shadow_fault =
  | Bit_flip of { pick : int; mask : int }  (* xor an owned segment's code *)
  | Stale_free of { pick : int }  (* a live segment marked freed *)
  | Overclaim_code of { pick : int }  (* a non-addressable segment marked good *)
  | Misfold of { degree : int }  (* arm Folding.Overstate_last for the run *)
  | Window_trim of { pick : int }
    (* fuzz-mode plane: trim a segment off the dirty window between
       snapshot and restore, so the restore under-repairs the shadow *)

(* Plane 2: allocator pressure. *)
type alloc_fault =
  | Oom_at of int  (* Heap.chaos_oom_after: the n-th malloc raises *)
  | Tiny_arena of int  (* run the workload on an n-byte arena *)
  | Quarantine_thrash of { budget : int; churn : int }
  | Fragmentation of { allocs : int; size : int }

(* Plane 3: execution faults in the domain pool. *)
type exec_fault =
  | Task_raise of { at : int; tasks : int; jobs : int }
  | Pathological_shard of { heavy : int; repeat : int; jobs : int }

(* Plane 4: input faults against the corpus/NDJSON parsers. *)
type input_fault =
  | Corrupt_corpus of { seed : int }
  | Corrupt_ndjson of { seed : int }

type plane = Shadow | Alloc | Exec | Input

let plane_name = function
  | Shadow -> "shadow"
  | Alloc -> "alloc"
  | Exec -> "exec"
  | Input -> "input"

type spec =
  | F_shadow of shadow_fault
  | F_alloc of alloc_fault
  | F_exec of exec_fault
  | F_input of input_fault

type cell = {
  cell_id : string;
  plane : plane;
  spec : spec;
  scenario_seed : int;  (* victim-workload seed, where applicable *)
  inject_after : int;  (* steps executed before the fault lands *)
}

let spec_name = function
  | F_shadow (Bit_flip { mask; _ }) -> Printf.sprintf "bit-flip x%02x" mask
  | F_shadow (Stale_free _) -> "stale-free-code"
  | F_shadow (Overclaim_code _) -> "overclaim-code"
  | F_shadow (Misfold { degree }) -> Printf.sprintf "misfold d=%d" degree
  | F_shadow (Window_trim { pick }) -> Printf.sprintf "window-trim p=%d" pick
  | F_alloc (Oom_at n) -> Printf.sprintf "oom@malloc %d" n
  | F_alloc (Tiny_arena n) -> Printf.sprintf "arena=%dB" n
  | F_alloc (Quarantine_thrash { budget; churn }) ->
    Printf.sprintf "thrash q=%dB x%d" budget churn
  | F_alloc (Fragmentation { allocs; size }) ->
    Printf.sprintf "fragment %dx%dB" allocs size
  | F_exec (Task_raise { at; tasks; jobs }) ->
    Printf.sprintf "raise@%d/%d j=%d" at tasks jobs
  | F_exec (Pathological_shard { heavy; repeat; jobs }) ->
    Printf.sprintf "skew@%d x%d j=%d" heavy repeat jobs
  | F_input (Corrupt_corpus { seed }) -> Printf.sprintf "corpus s=%d" seed
  | F_input (Corrupt_ndjson { seed }) -> Printf.sprintf "ndjson s=%d" seed

(* The matrix is generated, not hand-listed: every numeric knob (picks,
   masks, degrees, injection step, victim seeds) comes from one splitmix64
   stream, so a (seed) always yields the identical fault schedule — the
   same property the fuzzer's (seed, runs) pair has. *)
let matrix ~seed =
  let rng = Rng.create seed in
  let cells = ref [] in
  let push plane spec =
    let scenario_seed = Rng.int rng 1_000_000 in
    let inject_after = 2 + Rng.int rng 6 in
    let cell_id =
      Printf.sprintf "%s-%02d" (plane_name plane) (List.length !cells)
    in
    cells := { cell_id; plane; spec; scenario_seed; inject_after } :: !cells
  in
  (* shadow plane: one cell per corruption kind, randomized parameters *)
  push Shadow (F_shadow (Bit_flip { pick = Rng.int rng 64; mask = 1 + Rng.int rng 255 }));
  push Shadow (F_shadow (Stale_free { pick = Rng.int rng 64 }));
  push Shadow (F_shadow (Overclaim_code { pick = Rng.int rng 64 }));
  push Shadow (F_shadow (Misfold { degree = 1 + Rng.int rng 3 }));
  push Shadow (F_shadow (Window_trim { pick = Rng.int rng 64 }));
  (* allocator pressure *)
  push Alloc (F_alloc (Oom_at (1 + Rng.int rng 6)));
  push Alloc (F_alloc (Tiny_arena (2048 + (8 * Rng.int rng 64))));
  push Alloc
    (F_alloc (Quarantine_thrash { budget = 64 + (8 * Rng.int rng 16);
                                  churn = 24 + Rng.int rng 24 }));
  push Alloc
    (F_alloc (Fragmentation { allocs = 12 + Rng.int rng 8;
                              size = 160 + (8 * Rng.int rng 16) }));
  (* execution faults *)
  push Exec (F_exec (Task_raise { at = 3 + Rng.int rng 8; tasks = 16; jobs = 2 }));
  push Exec (F_exec (Task_raise { at = 3 + Rng.int rng 8; tasks = 16; jobs = 4 }));
  push Exec
    (F_exec (Pathological_shard { heavy = Rng.int rng 8; repeat = 40; jobs = 2 }));
  (* input faults: two seeds per parser so more than one mutation kind runs *)
  push Input (F_input (Corrupt_corpus { seed = Rng.int rng 1_000_000 }));
  push Input (F_input (Corrupt_corpus { seed = Rng.int rng 1_000_000 }));
  push Input (F_input (Corrupt_ndjson { seed = Rng.int rng 1_000_000 }));
  push Input (F_input (Corrupt_ndjson { seed = Rng.int rng 1_000_000 }));
  List.rev !cells
