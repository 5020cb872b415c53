(** Declarative service-level objectives and the per-window verdicts the
    watchdog escalates on.

    An SLO is up to three thresholds, all optional: a p999 latency
    ceiling, an error-rate ceiling, and a throughput floor. Each closed
    rate window is evaluated against all three; every threshold the
    window violates yields one {!breach}. Escalation (breach streaks →
    degraded → quarantined) lives in {!Loop}; this module is pure. *)

type t = {
  max_p999_ns : float option;  (** latency ceiling on the window's p999 *)
  max_error_rate : float option;  (** reports / ops ceiling, in [0, 1] *)
  min_ops_per_sec : float option;  (** throughput floor *)
}

val none : t
(** No thresholds: every window is healthy. *)

val is_none : t -> bool

val parse : string -> (t, string) result
(** Parse a compact spec: comma-separated [key=value] clauses with keys
    [p999] (ns), [err] (fraction) and [ops] (per second), e.g.
    ["p999=20000,err=0.02,ops=50000"]. Unknown keys, malformed, negative
    or non-finite numbers, an [err] above 1 and a key given twice are named
    errors. The empty string is {!none}. *)

val to_string : t -> string
(** Canonical render (clauses in p999, err, ops order, each number the
    shortest form that parses back to the same float, so ["ops=999999999"]
    stays exact); ["none"] for {!none}. {!parse} accepts every render and
    reads back the same value. *)

type breach = {
  b_slo : string;  (** "p999" | "error_rate" | "ops_per_sec" *)
  b_value : float;  (** the window's measured value *)
  b_limit : float;  (** the configured threshold it violated *)
}

val evaluate :
  t -> p999_ns:float -> error_rate:float -> ops_per_sec:float -> breach list
(** Verdicts for one closed window, in p999, err, ops order; empty means
    the window met every configured objective. *)
