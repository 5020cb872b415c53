(** PartiSan-style run-time partitioning: choose a sanitizer backend per
    run — and per tenant — from a declarative budget spec, and downshift
    a persistently breaching tenant to a cheaper variant instead of
    quarantining it (degrade coverage before degrading service).

    A spec has three knobs:
    - [budget]: the mean overhead ceiling in native-multiples (>= 1.0);
    - [weights]: detection-class priorities that score each backend as
      [sum (weight * detection)];
    - [fallback]: the backend used when nothing fits the budget.

    Every function is a pure, deterministic computation over
    {!Backend.all} — the service loop stays byte-reproducible with a
    policy installed. *)

type spec = {
  budget : float;
  weights : (Backend.detection_class * int) list;
      (** always all four classes, canonical order *)
  fallback : Backend.id;
}

val default : spec
(** budget 2.5 (admits every backend), all classes weight 1, fallback
    native. *)

val parse : string -> (spec, string) result
(** Comma-separated [key=value] clauses over {!default}:
    [budget=F] (finite, >= 1.0), [prefer=cls:w;cls:w;...] (classes not
    named weigh 0), [fallback=backend], each at most once. E.g.
    ["budget=1.5,prefer=oob:3;uaf:2,fallback=native"]. Errors name the
    offending clause. *)

val to_string : spec -> string
(** Canonical render (the budget in the shortest form that parses back to
    the same float); {!parse} accepts every render and reads back the same
    value. *)

val score : spec -> Backend.id -> int
(** [sum (weight * detection)] over the four classes. *)

val decide : spec -> Backend.id
(** The best-scoring backend whose overhead fits the budget (ties break
    cheaper, then by {!Backend.all} order); [fallback] when none fits. *)

val assign : spec -> tenants:int -> Backend.id list
(** One backend per tenant under a {e mean}-overhead budget
    ([budget * tenants] total): greedy in tenant order, each choice
    feasibility-checked against the cheapest completion of the remaining
    tenants — the head of the fleet gets the best coverage the budget
    allows, the tail absorbs the cost. *)

val downshift : spec -> current:Backend.id -> Backend.id option
(** The best-scoring backend strictly cheaper than [current] (budget is
    not consulted — shedding overhead is the point); [None] at the
    cheapest rung, where the caller's only remaining move is quarantine.
    The default weights walk asan → pac → giantsan → native. *)

val upshift : spec -> current:Backend.id -> ceiling:Backend.id -> Backend.id option
(** The ladder's return direction: the best-scoring backend strictly
    costlier than [current] but no costlier than [ceiling] (the tenant's
    original assignment, so the [assign] budget arithmetic stays valid);
    [None] when [current] is already at or above the ceiling. The service
    loop calls this after [upshift_after] consecutive clean windows. *)
