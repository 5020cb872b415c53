(** Differential execution of one scenario across the tool matrix.

    Runs the scenario on a fresh sanitizer per tool, compares every verdict
    against the static ground truth ({!Giantsan_bugs.Scenario.ground_truth})
    and against the paper's cross-tool relations, and distils the run into
    coverage features for the greybox loop. *)

type divergence =
  | False_positive of Giantsan_workload.Runner.config
      (** ground truth says clean, the tool reported (Table 3's
          "no false-positive issues" claim, for every tool) *)
  | Dominance_violation
      (** ASan detected, GiantSan stayed silent — anchored operation-level
          checking must dominate instruction-level checking *)
  | Family_split
      (** ASan and ASan-- disagree; they share one runtime and may never *)
  | Pac_dominance_violation
      (** GiantSan detected, PAC stayed silent — PAC's exact signed bounds
          subsume redzone granularity, so it must see everything GiantSan
          sees. The converse (PAC detecting where GiantSan is silent —
          use-after-free once the quarantine has recycled the block, or an
          overflow jumping clean past the redzone) is the tagged scheme's
          legitimate edge, labelled buggy by ground truth, and deliberately
          {e not} a divergence. *)

val divergence_name : divergence -> string

val tool_tag : Giantsan_workload.Runner.config -> string
(** Two-letter prefix of a {!Giantsan_bugs.Harness.all_tools} entry's
    coverage features; raises [Invalid_argument] for the configurations
    the fuzzer never runs. *)

type outcome = {
  truth : bool;  (** static ground truth for this exact step list *)
  verdicts : (Giantsan_workload.Runner.config * bool) list;
  divergences : divergence list;  (** empty = all invariants held *)
  features : string list;  (** coverage features observed during the run *)
}

(** {1 Execution modes (the fuzz-mode profile)} *)

type mode =
  | Rebuild  (** fresh sanitizer per (tool, scenario): full construction *)
  | Persistent
      (** one long-lived sanitizer per tool, snapshot once, restore after
          every exec — incremental shadow re-poisoning via the dirty-segment
          window, PAC salt rollback. Event-count-identical to [Rebuild],
          so verdicts, features and coverage are byte-identical too. *)

val mode_name : mode -> string

type ctx
(** Persistent-mode execution context: the per-tool long-lived sanitizers
    and their pristine snapshots. *)

val make_ctx : unit -> ctx
(** Build one sanitizer per tool and snapshot each pristine. *)

val run : ?ctx:ctx -> Giantsan_bugs.Scenario.t -> (outcome, string) result
(** [Error _] when the scenario is not executable (unallocated-slot use or
    arena exhaustion); such inputs are skipped, not treated as findings.
    With [?ctx] the run executes in persistent mode: each tool's sanitizer
    is restored to its pristine snapshot afterwards, even when the scenario
    dies mid-exec. *)

val diverges : Giantsan_bugs.Scenario.t -> bool
(** Does the scenario currently produce at least one divergence? (The
    shrinker's "still interesting" predicate.) *)

val capture_trace : Giantsan_bugs.Scenario.t -> string list
(** Re-execute the scenario across the full tool matrix with the telemetry
    tracer enabled and return the NDJSON event lines. Deterministic: events
    carry sequence numbers, never timestamps, so the same scenario always
    yields byte-identical lines. *)
