(** The chaos engine: executes a {!Fault.matrix} and checks each plane's
    degradation contract.

    Every cell builds a private sanitizer/heap/shadow, so cells share no
    mutable state and the matrix parallelises over {!Giantsan_parallel.Pool}
    without changing its output: results come back in cell order, every
    cell's computation is scheduling-independent, and the only global
    resource (the telemetry trace sink, needed by the NDJSON input cells) is
    consumed serially before the parallel phase. For a fixed seed the
    rendered report is byte-identical across runs and across [--jobs].

    The contract, per plane:
    - {e shadow}: injected corruption must be flagged by the
      {!Selfcheck} audit — never silently absorbed into a verdict;
    - {e alloc}: exhaustion must end in graceful degradation (pressure
      flush, quarantine bypass) or a clean [Out_of_memory] diagnostic, with
      the shadow audit still clean and temporal detection preserved;
    - {e exec}: a raising task must poison the pool deterministically
      (lowest-index exception), and skewed shards must not change results;
    - {e input}: corrupt corpus/NDJSON text must be rejected by the parser
      or survive as still-consistent input — never accepted with a lie.

    Any cell that breaches its contract is a [Silent] outcome; one or more
    of those fails the whole run. *)

type outcome =
  | Detected  (** the fault was flagged (audit mismatch, parse rejection) *)
  | Degraded
      (** forward progress was lost gracefully: diagnostic raised,
          detection and shadow consistency preserved *)
  | Tolerated  (** the fault landed but had nothing to break *)
  | Silent  (** contract violation: the fault went unnoticed *)

type stats = {
  mutable faults_injected : int;
  mutable faults_detected : int;
  mutable runs_degraded : int;
  mutable faults_tolerated : int;
  mutable silent_corruptions : int;
}

val fresh_stats : unit -> stats

type result_row = {
  r_cell : Fault.cell;
  r_outcome : outcome;
  r_detail : string;
}

val run_round : seed:int -> jobs:int -> result_row list
(** Execute one full matrix; rows come back in cell order. *)

val tally : stats -> result_row list -> unit

val run : ?soak:int -> seed:int -> jobs:int -> unit -> string * bool
(** [run ~seed ~jobs ()] renders the full report (fault table, counters,
    contract line). [soak] > 1 repeats the matrix over derived seeds and
    appends an aggregate. Returns [(report, contract_held)]. *)
