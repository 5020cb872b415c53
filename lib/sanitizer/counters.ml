module Metric = Giantsan_telemetry.Metric

type t = {
  mutable mallocs : int;
  mutable frees : int;
  mutable poison_segments : int;
  mutable instr_checks : int;
  mutable region_checks : int;
  mutable fast_checks : int;
  mutable slow_checks : int;
  mutable word_checks : int;
  mutable cache_hits : int;
  mutable cache_updates : int;
  mutable underflow_checks : int;
  mutable bounds_checks : int;
  mutable auth_checks : int;
  mutable errors : int;
}

(* The declarative field list: to_assoc/pp/total_checks are derived from
   it. [reset] and [add] run on every fuzz-mode restore, so they are
   written out field by field below instead of walking this list's getter
   and setter closures (56 indirect calls per restore); test_counters.ml's
   drift guard holds them equal to [Metric.reset]/[Metric.add] over this
   spec on random records, so a field added here and not there fails it. *)
let spec : t Metric.spec =
  [
    Metric.field "mallocs" (fun t -> t.mallocs) (fun t v -> t.mallocs <- v);
    Metric.field "frees" (fun t -> t.frees) (fun t v -> t.frees <- v);
    Metric.field "poison_segments"
      (fun t -> t.poison_segments)
      (fun t v -> t.poison_segments <- v);
    Metric.field "instr_checks"
      (fun t -> t.instr_checks)
      (fun t v -> t.instr_checks <- v);
    Metric.field "region_checks"
      (fun t -> t.region_checks)
      (fun t v -> t.region_checks <- v);
    Metric.field "fast_checks"
      (fun t -> t.fast_checks)
      (fun t v -> t.fast_checks <- v);
    Metric.field "slow_checks"
      (fun t -> t.slow_checks)
      (fun t v -> t.slow_checks <- v);
    Metric.field "word_checks"
      (fun t -> t.word_checks)
      (fun t v -> t.word_checks <- v);
    Metric.field "cache_hits"
      (fun t -> t.cache_hits)
      (fun t v -> t.cache_hits <- v);
    Metric.field "cache_updates"
      (fun t -> t.cache_updates)
      (fun t v -> t.cache_updates <- v);
    Metric.field "underflow_checks"
      (fun t -> t.underflow_checks)
      (fun t v -> t.underflow_checks <- v);
    Metric.field "bounds_checks"
      (fun t -> t.bounds_checks)
      (fun t v -> t.bounds_checks <- v);
    Metric.field "auth_checks"
      (fun t -> t.auth_checks)
      (fun t v -> t.auth_checks <- v);
    Metric.field "errors" (fun t -> t.errors) (fun t v -> t.errors <- v);
  ]

let create () =
  {
    mallocs = 0;
    frees = 0;
    poison_segments = 0;
    instr_checks = 0;
    region_checks = 0;
    fast_checks = 0;
    slow_checks = 0;
    word_checks = 0;
    cache_hits = 0;
    cache_updates = 0;
    underflow_checks = 0;
    bounds_checks = 0;
    auth_checks = 0;
    errors = 0;
  }

let reset t =
  t.mallocs <- 0;
  t.frees <- 0;
  t.poison_segments <- 0;
  t.instr_checks <- 0;
  t.region_checks <- 0;
  t.fast_checks <- 0;
  t.slow_checks <- 0;
  t.word_checks <- 0;
  t.cache_hits <- 0;
  t.cache_updates <- 0;
  t.underflow_checks <- 0;
  t.bounds_checks <- 0;
  t.auth_checks <- 0;
  t.errors <- 0

let add acc x =
  acc.mallocs <- acc.mallocs + x.mallocs;
  acc.frees <- acc.frees + x.frees;
  acc.poison_segments <- acc.poison_segments + x.poison_segments;
  acc.instr_checks <- acc.instr_checks + x.instr_checks;
  acc.region_checks <- acc.region_checks + x.region_checks;
  acc.fast_checks <- acc.fast_checks + x.fast_checks;
  acc.slow_checks <- acc.slow_checks + x.slow_checks;
  acc.word_checks <- acc.word_checks + x.word_checks;
  acc.cache_hits <- acc.cache_hits + x.cache_hits;
  acc.cache_updates <- acc.cache_updates + x.cache_updates;
  acc.underflow_checks <- acc.underflow_checks + x.underflow_checks;
  acc.bounds_checks <- acc.bounds_checks + x.bounds_checks;
  acc.auth_checks <- acc.auth_checks + x.auth_checks;
  acc.errors <- acc.errors + x.errors

(* Check executions regardless of flavour. [fast_checks] and [slow_checks]
   are deliberately absent: they partition [region_checks] (every region
   check is settled by exactly one of the two paths), so adding them would
   double-count — see the qcheck partition invariant in test_counters.ml.
   [word_checks] is absent for the same reason: it counts the subset of
   [fast_checks] settled by the one-word kernel, not new check events.
   [auth_checks] (PAC pointer authentications) is a check event of its own
   — the tagged-pointer backend performs no instruction or region checks,
   only authentications — so it joins the sum. *)
let total_checks_fields =
  [ "instr_checks"; "region_checks"; "cache_hits"; "cache_updates";
    "bounds_checks"; "auth_checks" ]

let total_checks t = Metric.sum spec ~names:total_checks_fields t
let to_assoc t = Metric.to_assoc spec t
let pp ppf t = Metric.pp spec ppf t
