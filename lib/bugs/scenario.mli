(** Bug-scenario DSL.

    A scenario is a short script of allocations, frees and (possibly
    out-of-bounds) accesses, executed directly against a sanitizer's
    runtime API. The detectability studies (Tables 3, 4 and 5) are corpora
    of these scenarios: the ground-truth label says whether the scenario
    contains a violation; a sanitizer scores a detection when any of its
    checks fires. *)

type step =
  | Alloc of { slot : int; size : int; kind : Giantsan_memsim.Memobj.kind }
      (** slot := malloc(size) — slots are scenario-local pointer registers *)
  | Free_slot of int
  | Free_at of { slot : int; delta : int }
      (** free(slot + delta): CWE-761 when delta <> 0 *)
  | Access of { slot : int; off : int; width : int }
      (** one anchored access at slot + off *)
  | Access_loop of { slot : int; from_ : int; to_ : int; step : int; width : int }
      (** a cached loop: byte offsets from_, from_+step, ... below to_
          (or above, when step < 0), through the history cache, with the
          loop-exit flush *)
  | Region of { slot : int; off : int; len : int }
      (** a memset/strcpy-style region operation *)
  | Access_null of { off : int; width : int }
      (** dereference of the null page at byte [off] *)

type t = {
  sc_id : string;
  sc_cwe : int;  (** CWE number, or 0 for CVE/Magma scenarios *)
  sc_buggy : bool;  (** ground truth: does a violation occur at runtime? *)
  sc_steps : step list;
}

val loop_trips : from_:int -> to_:int -> step:int -> int
(** [loop_trips ~from_ ~to_ ~step] is how many offsets an [Access_loop]
    visits: offset [k] is [from_ + k * step], for every [k >= 0] that puts
    it strictly below [to_] when [step > 0], strictly above it when
    [step < 0]; none when [from_] is already past [to_]. Every such offset
    is inside the int range, so a step that would leave the range ends the
    walk instead of wrapping. The one stepping rule: {!iter_loop},
    {!exec_step} and {!loop_bounded} are built on this count, and
    {!ground_truth}, {!loop_offsets}, SoftBound and the chaos engine step
    through them. Closed form, overflow-safe; a count past [max_int]
    (a loop over nearly the whole int range) saturates there. Requires
    [step <> 0]. *)

val iter_loop : from_:int -> to_:int -> step:int -> (int -> unit) -> unit
(** [iter_loop ~from_ ~to_ ~step f] calls [f] on each offset an
    [Access_loop] visits, in order: [from_], [from_ + step], ... strictly
    below [to_] when [step > 0], strictly above it when [step < 0]; none
    when [from_] is already past [to_]. Loops over {!loop_trips}.
    Allocates nothing per offset. Requires [step <> 0]. A step whose
    result would leave the int range ends the walk instead of wrapping. *)

val max_loop_trips : int
(** The most offsets a replayable loop may visit ([2^20]). *)

val max_replay_offset : int
(** The largest magnitude of a byte offset a replayable access, loop,
    region or null step may name ([2^32]): far beyond any arena, and small
    enough that a runtime's [base + off + width] stays inside the int
    range. *)

val loop_bounded : from_:int -> to_:int -> step:int -> bool
(** Does {!iter_loop} visit at most {!max_loop_trips} offsets, with the
    step after each of them inside the int range? O(1): read off
    {!loop_trips} and the last offset. Requires [step <> 0]. *)

val loop_offsets : from_:int -> to_:int -> step:int -> int list
(** The offsets {!iter_loop} visits, as a list. *)

type slots
(** A scenario's slot table: each slot's current base address. A small
    int table scanned linearly (a scenario names a handful of slots). *)

val slots : unit -> slots
(** An empty table. *)

val exec_step :
  Giantsan_sanitizer.Sanitizer.t ->
  sc_id:string ->
  slots ->
  Giantsan_sanitizer.Report.t list ->
  step ->
  Giantsan_sanitizer.Report.t list
(** [exec_step san ~sc_id slots acc step] executes one step against
    [san] and returns [acc] with the step's reports pushed on, latest
    first. The step executor: {!run_reports} folds it over a scenario, and
    the chaos engine calls it step by step so it can stop mid-scenario. An
    [Alloc] binds its slot in [slots]; an [Access_loop] makes a fresh
    history cache, calls [san]'s [cached_access] once per offset of
    {!loop_trips} in a plain loop, then [flush_cache]. A step naming a
    slot no [Alloc] bound fails with ["<sc_id>: use of unallocated slot"]
    before any check. *)

val run : Giantsan_sanitizer.Sanitizer.t -> t -> bool
(** Execute against a (fresh) sanitizer; [true] if any check reported. *)

val run_reports :
  Giantsan_sanitizer.Sanitizer.t -> t -> Giantsan_sanitizer.Report.t list
(** Like {!run} but returns every report the checks produced, in execution
    order. The fuzzer's coverage map keys on the report kinds. *)

val ground_truth : t -> bool
(** Does the scenario really contain a violation? Computed statically from
    the step list alone (sizes and lifetimes are known by construction),
    ignoring the [sc_buggy] label. The fuzzer's referee: mutated scenarios
    get their truth from here, not from the label they inherited. *)

val validate : t -> (unit, string) result
(** Sanity-check the ground-truth label against the oracle: running the
    scenario on a Native heap, does some access really leave its intended
    object (or touch freed memory)? Used by the corpus self-tests. *)
