(** Plain-text, replayable scenario files.

    One scenario per file, line-oriented so findings can be read, edited and
    code-reviewed like source:

    {v
    # anything after '#' is a comment
    id shrunk_misfold_42
    cwe 0
    buggy true
    alloc 0 64 heap
    access 0 64 1
    v}

    Step lines: [alloc SLOT SIZE KIND], [free SLOT], [free_at SLOT DELTA],
    [access SLOT OFF WIDTH], [loop SLOT FROM TO STEP WIDTH],
    [region SLOT OFF LEN], [null OFF WIDTH]. KIND is [heap], [stack] or
    [global]. SIZE may not be negative; WIDTH is at least 1 and a loop's
    STEP is non-zero, so every parsed step is one the runtimes accept. A
    loop visits at most {!Giantsan_bugs.Scenario.max_loop_trips} offsets
    and none of its steps leaves the int range, so every parsed scenario
    replays in bounded time.
    Header lines ([id], [cwe], [buggy]) may appear in any order
    before the steps; missing headers default to ["corpus"], [0], and the
    computed ground truth.

    [test/corpus/regressions/] holds one file per past fuzzer finding; the
    tier-1 suite replays every one of them and fails on any divergence. *)

val to_string : Giantsan_bugs.Scenario.t -> string
val of_string : string -> (Giantsan_bugs.Scenario.t, string) result
(** Inverse of {!to_string}; [Error] names the first offending line. The
    [sc_buggy] label is cross-checked against the ground truth and rejected
    when inconsistent (a corpus file must never lie about its label).
    Steps a runtime could not replay are parse errors: negative sizes, zero
    widths, loops failing {!Giantsan_bugs.Scenario.loop_bounded}, and
    offsets beyond {!Giantsan_bugs.Scenario.max_replay_offset}. *)

val save_file : ?trace:string list -> string -> Giantsan_bugs.Scenario.t -> unit
(** [save_file ?trace path t] writes {!to_string}[ t]; when [trace] is
    non-empty, each line is appended as a [# trace: ...] comment so the
    event trace travels with the reproducer without breaking replay. *)

val load_file : string -> (Giantsan_bugs.Scenario.t, string) result

val load_dir : string -> (string * (Giantsan_bugs.Scenario.t, string) result) list
(** Every regular file in the directory, sorted by filename for
    deterministic replay order. A missing directory is an empty corpus. *)
