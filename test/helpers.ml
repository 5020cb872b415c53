(* Shared helpers for the test suites. *)

module Memsim = Giantsan_memsim
module San = Giantsan_sanitizer.Sanitizer
module Report = Giantsan_sanitizer.Report

let small_config =
  { Memsim.Heap.arena_size = 1 lsl 16; redzone = 16; quarantine_budget = 4096 }

let mid_config =
  { Memsim.Heap.arena_size = 1 lsl 20; redzone = 16; quarantine_budget = 64 * 1024 }

let giantsan ?(config = mid_config) () = Giantsan_core.Gs_runtime.create config
let asan ?(config = mid_config) () = Giantsan_asan.Asan_runtime.create config
let lfp ?(config = mid_config) () = Giantsan_lfp.Lfp_runtime.create config
let native ?(config = mid_config) () = Giantsan_sanitizer.Native.create config

let check_is_safe = function None -> true | Some (_ : Report.t) -> false

(* A randomly populated heap: some live objects, some freed. Returns the
   sanitizer plus the object lists, for oracle-vs-checker property tests. *)
let random_scene (rng : Giantsan_util.Rng.t) make_san =
  let san = make_san () in
  let live = ref [] and freed = ref [] in
  let n_objects = Giantsan_util.Rng.int_in rng 3 12 in
  for _ = 1 to n_objects do
    let size = Giantsan_util.Rng.int_in rng 0 300 in
    let obj = san.San.malloc size in
    if Giantsan_util.Rng.int rng 4 = 0 then begin
      ignore (san.San.free obj.Memsim.Memobj.base);
      freed := obj :: !freed
    end
    else live := obj :: !live
  done;
  (san, !live, !freed)

let oracle_safe (san : San.t) ~lo ~hi =
  let oracle = Memsim.Heap.oracle san.San.heap in
  let size = Memsim.Arena.size (Memsim.Heap.arena san.San.heap) in
  if lo < 0 || hi > size || lo > hi then false
  else Memsim.Oracle.range_addressable oracle ~lo ~hi

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* Minor words [f] allocates, and what reading the counter twice costs on
   its own — the only allocation a zero-word assertion may tolerate. *)
let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let counter_cost () = minor_words_of ignore

(* Quick alcotest shorthands *)
let qt = Alcotest.test_case
let q name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:200 arb prop)
