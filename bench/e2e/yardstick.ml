(* The frozen reference kernel every timed region is normalised by.

   It shares no code with the program under test and allocates nothing, so
   no change under lib/ can move it. A machine-wide slowdown (frequency
   scaling, a busy neighbour) slows the yardstick and the region that runs
   right after it alike, and scaling the region by [nominal / measured]
   cancels it. Half of the time goes to walking a 256 KiB table at
   pseudo-random indices through a dependent multiply chain, with an
   unpredictable branch guarding a store: arithmetic, a metadata load and
   a branch, as in a check. The other half runs independent operations on
   a 4 KiB table that stays in L1, so that the kernel, like the
   interpreter and the check kernels, depends on how many instructions the
   core retires per cycle and not only on latency: when a neighbour on the
   host takes a share of the core, the workloads slow by more than a
   latency chain alone does. Both tables are warmed before each sample
   ({!warm}). README.md gives the measurements behind these choices.

   Editing this file re-bases every normalised metric at once; README.md
   says how. *)

(* picoseconds per iteration on the reference machine *)
let nominal_ps = 15_000

let table_words = 1 lsl 15
let table = Array.init table_words (fun i -> (i * 0x9E3779B1) land 0xFFFF)
let l1_words = 512
let l1 = Array.init l1_words (fun i -> i * 7919)

(* IPC-bound steps per iteration, so that each half takes about as long *)
let l1_steps = 8

(* Brings both tables back into the caches, so that a sample measures the
   machine and not what the region before it left in the caches (a
   backend that pollutes them more would otherwise read as faster). *)
let warm () =
  let s = ref 0 in
  for j = 0 to (table_words / 8) - 1 do
    s := !s + Array.unsafe_get table (8 * j)
  done;
  for j = 0 to (l1_words / 8) - 1 do
    s := !s + Array.unsafe_get l1 (8 * j)
  done;
  !s

let run iters =
  let h = ref 0x2545F4914F6CDD1D in
  for i = 1 to iters / 2 do
    let j = (!h lsr 20) land (table_words - 1) in
    let v = Array.unsafe_get table j in
    h := ((!h lxor v) + i) * 0x5851F42D4C957F2D;
    if !h land 0x100 = 0 then Array.unsafe_set table j (v lxor 1)
  done;
  let a = ref 0 and b = ref 1 and c = ref 2 and d = ref 3 in
  for i = 1 to (iters - (iters / 2)) * l1_steps do
    let x = Array.unsafe_get l1 (i land (l1_words - 1)) in
    a := !a + (x lxor i);
    b := !b lxor (x lsl 3);
    c := !c + (x lsr 2);
    d := (!d lxor (!d lsl 1)) + x
  done;
  !h + !a + !b + !c + !d
