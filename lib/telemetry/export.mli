(** Exporters: turn the in-memory telemetry (trace ring, counters,
    histograms, spans, bench rows) into NDJSON / JSON files, plus the
    line-by-line NDJSON checker the CI gate runs over every dump. *)

val ndjson_lines : (int * Event.t) list -> string list
(** One compact JSON object per event, in order. *)

val trace_ndjson : unit -> string list
(** [ndjson_lines] of the current global sink contents. *)

val check_ndjson_line : ?lax:bool -> string -> (unit, string) result
(** A valid trace line is one JSON object with an ["ev"] string field and
    a non-negative ["seq"] int field — and, unless [lax] (default
    [false]), the ["ev"] value must be one of {!Event.all_names}: an
    unknown kind fails with a named [unknown event kind] error instead of
    being accepted silently. *)

val check_ndjson : ?lax:bool -> string -> (int, string) result
(** Validate a whole NDJSON document (empty lines allowed); returns the
    number of event lines or the first error, prefixed with its line
    number. [lax] is the escape hatch for foreign dumps with event kinds
    this build does not know (the CLI exposes it as [--lax]). *)

(** {1 summary.json} *)

val summary_json :
  ?spans:Span.t list ->
  ?tools:(string * (string * int) list * Histogram.set) list ->
  unit ->
  string
(** Metrics snapshot: per-tool aggregated counters and histograms plus the
    completed spans. [tools] entries are (tool name, counters assoc,
    histogram set). Rows are keyed by tool name — duplicates are merged
    (counters summed, histograms merged) and the output is sorted by name,
    so the document is independent of registration order and stable when a
    backend is skipped. *)

(** {1 BENCH_giantsan.json} *)

type bench_profile = {
  bp_profile : string;
  bp_config : string;
  bp_sim_ns : float;  (** simulated ns for the whole profile run *)
  bp_ops : int;
  bp_shadow_loads : int;
  bp_shadow_stores : int;  (** metadata stores (poisoning traffic) *)
  bp_region_checks : int;
  bp_fast_checks : int;
  bp_slow_checks : int;
  bp_word_checks : int;
      (** fast checks settled by the word kernel (one 8-byte shadow load);
          a subdivision of [bp_fast_checks], exported with its own
          [word_path_ratio] *)
}

type service_row = {
  sv_scope : string;  (** ["global"] or ["tenant-N"] *)
  sv_tenants : int;
  sv_windows : int;  (** closed rate windows the row aggregates *)
  sv_ops : int;
  sv_errors : int;  (** sanitizer reports produced while serving *)
  sv_breaches : int;  (** SLO breach events *)
  sv_ops_per_sec : float;  (** sustained throughput over the run *)
  sv_latency_p50 : float;  (** ns, from the HDR latency histogram *)
  sv_latency_p99 : float;
  sv_latency_p999 : float;
}
(** One row of the [service] section: the sustained-traffic numbers the
    ROADMAP's service mode is measured by. *)

val bench_json :
  groups:(string * (string * float) list) list ->
  profiles:bench_profile list ->
  ?service:service_row list ->
  ?spans:Span.t list ->
  unit ->
  string
(** The BENCH_giantsan.json document: wall-clock ns/run per bechamel test
    (grouped), per-profile simulated cost with ns/op, shadow loads and
    fast-path ratio, the optional [service] sustained-traffic rows
    (latency percentiles + ops/sec), and optional spans. Schema documented
    in EXPERIMENTS.md. *)

val parse_bench_service : string -> (service_row list, string) result
(** Parse the [service] section back out of a BENCH_giantsan.json document
    ([Ok []] when the section is absent) — the export round-trip tests
    hold [bench_json]/[parse_bench_service] to a lossless loop. *)

(** {1 Performance regression gate}

    The profile sweep is deterministic — seeded scenario generation feeding
    the event-count cost model — so its event counts must reproduce exactly
    and [ns_per_op] may move only within a tolerance (cost-model drift).
    The wall-clock bechamel groups vary per machine and are not gated. *)

val gate_count_fields : string list
(** The per-profile fields the gate requires to match exactly:
    ops, shadow loads/stores, region/fast/slow/word check counts. *)

type gate_profile = {
  g_profile : string;
  g_config : string;
  g_ns_per_op : float;
  g_counts : (string * int) list;  (** in [gate_count_fields] order *)
}

val parse_bench_profiles : string -> (gate_profile list, string) result
(** Parse the [profiles] section of a BENCH_giantsan.json document into
    the rows the gate judges. *)

(** One gate judges a fresh bench document against the committed
    baseline by a rule table. Each rule selects the row pairs it judges;
    a predicate decides each pair and a message names a violation. *)

type gate_rule = {
  rule : string;  (** short name, printed with each violation *)
  select :
    baseline:gate_profile list ->
    current:gate_profile list ->
    ((gate_profile * gate_profile) list, string) result;
      (** the pairs to judge; [Error] when rows the rule needs are absent *)
  holds : gate_profile * gate_profile -> bool;
  message : gate_profile * gate_profile -> string;
}

type gate_verdict =
  | Pass of (string * int) list  (** each rule with the pairs it judged *)
  | Violations of (string * string) list  (** (rule, message) *)
  | Unusable of string
      (** unparsable input, or rows a rule needs are absent: an error,
          never a pass *)

val gate_rules : gate_rule list
(** In order:
    - [rows-present], [rows-baselined]: the two documents hold the same
      rows;
    - [counts-exact]: {!gate_count_fields} match exactly;
    - [ns-per-op]: ns/op within ±25% either way;
    - [fig11-word-path], [fig11-order]: on [fig11.reverse-16KiB],
      GiantSan settles at least half of its region checks on the word
      path and its ns/op is no higher than ASan's;
    - [fuzzmode-rows], [fuzzmode-counts], [fuzzmode-persistent]: every
      backend has both [fuzzmode.*] rows, with identical event counts, and
      persistent is never slower per exec;
    - [fuzzmode-speedup]: GiantSan's persistent execs/sec is at least 5
      times rebuild's.

    The fig11 and fuzz-mode rules read the current document, and need
    its [fig11.reverse-16KiB] giantsan and asan rows and its giantsan
    [fuzzmode.rebuild] row. *)

val gate : baseline:string -> current:string -> gate_verdict
(** {!gate_rules} over two BENCH_giantsan.json documents. *)

val compare_bench :
  baseline:string -> current:string -> (int, string list) result
(** The four comparison rules alone ([rows-present] to [ns-per-op]): the
    number of compared rows, or the violation messages (parse errors
    included). *)

val write_file : string -> string -> unit
(** [write_file path body] truncates and writes (with a trailing
    newline). *)
