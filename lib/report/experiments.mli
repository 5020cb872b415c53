(** Experiment drivers: one per table/figure in the paper's evaluation.

    Every driver runs its whole experiment (deterministically) and returns
    the rendered report as a string. The CLI in
    [bin/] exposes each one as a subcommand, and EXPERIMENTS.md records the
    paper-vs-measured comparison. *)

type outcome = {
  o_id : string;  (** "table2", "fig11", ... *)
  o_title : string;
  o_body : string;  (** rendered tables/notes *)
}

val table1 : unit -> outcome
(** Operation- vs instruction-level check counts on Table 1's four idioms. *)

val table2 : ?quick:bool -> ?jobs:int -> unit -> outcome
(** SPEC-like overhead study incl. the ablation columns (§5.1, §5.2).
    [quick] runs 6 of the 24 profiles (for smoke tests). [jobs] shards the
    profile rows across a domain pool (default 1 = serial); the rendered
    table is byte-identical for every value. *)

val fig10 : ?quick:bool -> ?jobs:int -> unit -> outcome
(** Proportion of accesses per optimization category (§5.2). [jobs] as in
    {!table2}. *)

val table3 : unit -> outcome
(** Juliet-shaped detection study (§5.3). *)

val table5 : ?scale:int -> unit -> outcome
(** Magma-shaped redzone study (§5.3). [scale] divides the population
    sizes (default 1 = full size). *)

val fig11_row :
  Giantsan_policy.Backend.id ->
  pattern:[ `Forward | `Random | `Reverse | `Prescan ] ->
  size:int ->
  Giantsan_telemetry.Export.bench_profile
(** One traversal kernel of the §5.4 study ({!Giantsan_workload.Traversal},
    random probes seeded 11) over a fresh [size]-byte buffer on a 1 MiB
    heap, as a cost-model profile named [fig11.<pattern>-<KiB>KiB]. Its
    event counts include the buffer's allocation and [bp_ops] is
    [size / 8]. The bench's gated [fig11.*-16KiB] rows are this at
    [size = 16384]. *)

val fig11 : unit -> outcome
(** Traversal-pattern study (§5.4): {!fig11_row}'s simulated ns per access
    for Native / GiantSan / ASan on forward, random and reverse scans from
    1 to 16 KiB, the prescan mitigation, and the 16 KiB GiantSan/ASan
    ratios next to the paper's. *)

val all_ids : string list
(** The paper's seven experiments. *)

val extra_ids : string list
(** The extension experiments, not in the paper: the shadow-encoding
    ablation, the redzone and quarantine sweeps, and the §2.1
    pointer-based vs location-based compatibility study. *)

val run : ?quick:bool -> ?jobs:int -> string -> outcome
(** Run one experiment by id (paper or extension). [jobs] parallelizes the
    experiments that shard cleanly (currently [table2] and [fig10]); the
    others ignore it. Raises [Invalid_argument] on unknown ids. *)
