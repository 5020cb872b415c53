(** Detection harness: run scenario corpora under each tool and count. A
    tool is one evaluation configuration, built on a small per-scenario
    arena. *)

type tool := Giantsan_workload.Runner.config

val all_tools : tool list
(** Every backend under study, PAC included — the differential fuzzer and
    the Juliet/CVE detection tables iterate this list, so a backend left
    out of it is silently uncovered (the bug that kept PAC fuzz-blind). *)

val make_sanitizer :
  ?redzone:int -> ?quarantine:int -> tool -> Giantsan_sanitizer.Sanitizer.t
(** Fresh sanitizer on a small arena (each scenario runs in isolation, like
    one Juliet test process). Redzone defaults to the paper's 16 bytes. *)

val detected : ?redzone:int -> ?quarantine:int -> tool -> Scenario.t -> bool

val count_detected :
  ?redzone:int -> ?quarantine:int -> tool -> Scenario.t list -> int

val false_positives : ?redzone:int -> tool -> Scenario.t list -> int
(** Number of *clean* scenarios the tool wrongly flags (Table 3's "no
    false-positive issues" claim). *)

val validate_corpus : Scenario.t list -> string list
(** Ground-truth label errors in a corpus (must be empty; corpus self-test). *)
