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

    {b Compilation.} [run] does not walk a tree. It runs a closure-compiled
    form of the program, built once:
    - each function body, and the main body, is one scope, and each
      variable it mentions is a slot of that scope's frame;
    - a call gets a fresh frame, so globals are not visible in callees;
    - each access, memset, memcpy and loop is a dense site index;
    - each expression becomes a [state -> int] closure, and each
      statement, block and function body a [state -> unit] closure.
      Common shapes ([v + 3], [v < n], [a[i]], [a[2]], [x = v + 1],
      [x = a[i]], [a[i] = v]) read their variable and constant operands
      in place. Each closure ticks where the tree walk ticked and reads
      its operands in the tree walk's order (left before right, an
      address's index before its base), so ops, fuel exhaustion, failure
      messages and report order match the tree walk's.

    The compiled program is cached per domain, keyed by the program's
    physical identity, and held only while the program is alive (an
    ephemeron). It keeps only its scopes, sites, loops and closures.
    Every plan of one program shares it: the closures read what a plan
    says about each site (decisions, loop caches, and pre-regions
    compiled to closures) from arrays built on the first run of a
    (program, plan) pair and kept in the plan's [memo] until a {!Plan}
    mutator resets it. *)

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

val program_words : Giantsan_ir.Ast.program -> int
(** Words reachable from the compiled form of a program (compiled first if
    this domain has not yet), for footprint tests. *)
