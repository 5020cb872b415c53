(** Execute an IR program under a sanitizer according to an instrumentation
    plan.

    The interpreter plays the CPU: it evaluates expressions against a
    variable environment and a {!Giantsan_memsim.Arena}, fires the plan's
    checks (preheader region checks, cached accesses, plain accesses), and
    counts abstract "native operations" — the unit of work the cost model
    multiplies into simulated time.

    Error handling mirrors [halt_on_error=false]: a detected violation is
    recorded and the offending memory operation is skipped (the simulated
    process is not corrupted); an UNdetected violation really executes, and
    genuinely wild ones crash the run like a segfault would.

    {b Resolution.} [run] does not walk the AST with a string-keyed
    environment. It executes a resolved form of the program:
    - each function body, and the main body, is one scope, and each
      variable it mentions is a slot of that scope's frame;
    - a call gets a fresh frame, so globals are not visible in callees;
    - each access, memset, memcpy and loop is a dense site index.

    The resolved program is cached per domain, keyed by the program's
    physical identity, and held only while the program is alive (an
    ephemeron). Every plan of one program shares it. What a plan says about
    each site (decisions, pre-regions, loop caches) is resolved into arrays
    on the first run of a (program, plan) pair and kept in the plan's
    [memo] until a {!Plan} mutator resets it. *)

type exec_stats = {
  mutable x_plain : int;  (** accesses executed under a plain check *)
  mutable x_plain_fast : int;  (** ... of which the fast path sufficed *)
  mutable x_cached : int;  (** accesses executed under the cache *)
  mutable x_eliminated : int;  (** accesses executed with no check at all *)
  mutable x_unchecked : int;  (** native mode accesses *)
}

type outcome = {
  reports : Giantsan_sanitizer.Report.t list;  (** in program order *)
  ops : int;  (** abstract native operations executed *)
  stats : exec_stats;
  crashed : bool;  (** wild access escaped detection and left the arena *)
  out_of_memory : bool;
  fuel_exhausted : bool;
  final_env : (string * int) list;
      (** the main frame's bound variables at exit, for tests, in slot
          order: the globals, then the other variables in the order the
          main body first mentions them *)
}

val run :
  ?fuel:int ->
  Giantsan_sanitizer.Sanitizer.t ->
  Plan.t ->
  Giantsan_ir.Ast.program ->
  outcome
(** [fuel] bounds executed statements+expressions (default 50 million). *)

val var : outcome -> string -> int
(** Final value of a variable. Raises [Not_found]. *)
