(** Instrumentation plans: the output of the compilation phase.

    A plan records, for every access id, how the runtime must protect it
    (per-instruction check, history-cached check, or nothing because a
    merged/promoted region check covers it), plus the synthesized region
    checks to execute at loop preheaders and before merged access groups.
    The interpreter executes a (program, plan, sanitizer) triple. *)

type decision =
  | Plain  (** standalone check at the access *)
  | Cached  (** protected through the loop's quasi-bound cache *)
  | Eliminated  (** covered by a merged or promoted region check *)

type region = {
  rg_base : string;  (** pointer variable the region hangs off *)
  rg_lo : Giantsan_ir.Ast.expr;  (** byte offset of region start *)
  rg_hi : Giantsan_ir.Ast.expr;  (** byte offset of region end (exclusive) *)
}

type memo = ..
(** What the interpreter derives from a plan for the program it runs
    ({!Interp} extends this type with its resolved arrays). *)

type memo += Unresolved  (** nothing derived yet, or derived and stale *)

type t = {
  mode_name : string;
  enabled : bool;  (** false = Native: no checks at all *)
  use_anchor : bool;  (** pass the base pointer as anchor (GiantSan) *)
  decisions : (int, decision) Hashtbl.t;
  loop_pre : (int, region list) Hashtbl.t;
      (** loop id -> region checks at the preheader (executed only when the
          loop runs at least one iteration) *)
  stmt_pre : (int, region list) Hashtbl.t;
      (** access id -> merged region checks fired just before that access
          first executes in its statement *)
  loop_caches : (int, string list) Hashtbl.t;
      (** loop id -> base variables that get a quasi-bound cache *)
  mutable memo : memo;
      (** the interpreter's per-plan arrays for the last program run under
          this plan. Every mutator below resets it to [Unresolved], so
          change the tables only through them. *)
}

val create : mode_name:string -> enabled:bool -> use_anchor:bool -> t
val decision_of : t -> int -> decision
val set_decision : t -> int -> decision -> unit
val add_loop_pre : t -> int -> region -> unit
val add_stmt_pre : t -> int -> region -> unit
val add_loop_cache : t -> int -> string -> unit
val loop_pre_of : t -> int -> region list
val stmt_pre_of : t -> int -> region list
val caches_of : t -> int -> string list

type static_stats = {
  s_plain : int;
  s_cached : int;
  s_eliminated : int;
  s_pre_checks : int;
}

val static_stats : t -> static_stats
(** Static (per-site) counts, for reporting alongside Figure 10's dynamic
    proportions. *)
