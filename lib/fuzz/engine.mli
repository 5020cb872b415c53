(** The coverage-guided differential fuzzing loop.

    Supersedes one-shot random generation: a seed corpus of difftest
    scenarios evolves by mutation; inputs that light up new coverage
    features join the corpus; inputs whose cross-sanitizer verdicts
    diverge from the oracle or the paper's dominance relations are
    findings, shrunk to minimal reproducers. Everything is driven by one
    {!Giantsan_util.Rng} stream, so a (seed, runs) pair always produces a
    byte-identical summary. *)

type config = {
  runs : int;  (** mutation-execution iterations *)
  seed : int;
  minimize : bool;  (** shrink findings to minimal reproducers *)
  inject_misfold : bool;
      (** arm {!Giantsan_core.Folding.with_fault} with [Overstate_last 1]
          for the run — the fuzzer-finds-a-real-bug self-test *)
  mode : Exec.mode;
      (** execution profile: rebuild a sanitizer per exec, or snapshot once
          and restore between execs ({!Exec.Persistent}). Summaries are
          byte-identical between modes except for the config line. *)
}

val default_config : config
(** 2000 runs, seed 0, minimize on, no injected bug, rebuild mode. *)

type finding = {
  f_id : string;
  f_scenario : Giantsan_bugs.Scenario.t;  (** shrunk when [minimize] *)
  f_original_steps : int;  (** step count before shrinking *)
  f_divergences : string list;  (** divergence names, sorted *)
  f_trace : string list;
      (** NDJSON event trace of the minimal reproducer across all tools
          ({!Exec.capture_trace}); attached as comment lines when the
          finding is saved to a corpus file *)
}

type summary = {
  s_config : config;
  s_executed : int;  (** scenarios actually run (seeds + mutations) *)
  s_skipped : int;  (** mutants rejected as non-executable *)
  s_corpus : int;  (** corpus entries at the end of the run *)
  s_coverage : int;  (** distinct features, coverage-guided loop *)
  s_baseline_coverage : int;
      (** distinct features from pure-random generation on the same budget —
          the control the guided loop must beat *)
  s_divergent_runs : int;  (** executions with at least one divergence *)
  s_findings : finding list;  (** deduplicated by divergence signature *)
}

val run : config -> summary

val summary_to_string : summary -> string
(** Deterministic rendering (no timestamps, no wall-clock): two runs with
    the same config produce byte-identical output. *)

val replay :
  ?mode:Exec.mode -> dir:string -> unit -> (string * string list) list
(** Replay every corpus file in [dir]: parse it, execute it across all
    tools, and collect problems (parse errors, label drift, divergences).
    An empty problem list for every file means the regression corpus is
    green. [mode] defaults to {!Exec.Rebuild}; persistent-mode replay must
    produce the identical problem list (the snapshot/restore acceptance
    check the CI leg byte-compares). *)
