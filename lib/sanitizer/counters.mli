(** Event counters: every sanitizer records what its runtime did. The cost
    model (Table 2) and the optimization breakdown (Figure 10) are computed
    from these, and the unit tests assert on them — e.g. that a folded
    region check really loaded O(1) shadow bytes.

    [to_assoc]/[pp]/[total_checks] are derived from one declarative field
    list ([spec]). [reset] and [add] run on every fuzz-mode restore, so
    they are written out field by field, with no call; test_counters.ml
    holds them equal to [Metric.reset]/[Metric.add] over [spec] on random
    records, so a field added to the record and the spec but not to them
    fails that test. *)

type t = {
  mutable mallocs : int;
  mutable frees : int;
  mutable poison_segments : int;  (** shadow bytes written while poisoning *)
  mutable instr_checks : int;  (** instruction-level checks executed *)
  mutable region_checks : int;  (** operation-level region checks executed *)
  mutable fast_checks : int;  (** region checks settled by the fast path *)
  mutable slow_checks : int;  (** region checks that entered the slow path *)
  mutable word_checks : int;
      (** the subset of [fast_checks] settled by the one-word kernel (all
          probes served from a single 64-bit shadow load) *)
  mutable cache_hits : int;  (** accesses settled by the quasi-bound *)
  mutable cache_updates : int;  (** quasi-bound refreshes (metadata loads) *)
  mutable underflow_checks : int;  (** dedicated negative-offset checks *)
  mutable bounds_checks : int;  (** LFP-style pointer-derived bound checks *)
  mutable auth_checks : int;
      (** PAC-style pointer authentications (signature recompute +
          compare) — the tagged-pointer backend's only check flavour *)
  mutable errors : int;  (** reports produced *)
}

val spec : t Giantsan_telemetry.Metric.spec
(** The declarative field list, in record order. *)

val create : unit -> t
val reset : t -> unit
val add : t -> t -> unit
(** [add acc x] accumulates [x] into [acc]. *)

val total_checks : t -> int
(** All check executions regardless of flavour:
    [instr_checks + region_checks + cache_hits + cache_updates +
    bounds_checks + auth_checks]. [fast_checks] and [slow_checks] are deliberately
    excluded because they are not independent check executions — they
    partition [region_checks] (every region check is settled by exactly
    one of the fast or the slow path, the invariant
    [fast_checks + slow_checks = region_checks] that the qcheck suite
    holds every tool to), so including them would double-count.
    [word_checks] is excluded for the same reason: it subdivides
    [fast_checks] ([word_checks <= fast_checks] always). *)

val to_assoc : t -> (string * int) list
val pp : Format.formatter -> t -> unit
