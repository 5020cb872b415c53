let ndjson_lines events =
  List.map (fun (seq, ev) -> Json.to_string (Event.to_json ~seq ev)) events

let check_ndjson_line ?(lax = false) line =
  match Json.parse line with
  | Error e -> Error e
  | Ok json -> (
    match (Json.member "ev" json, Json.member "seq" json) with
    | Some (Json.Str ev), Some (Json.Int seq) when seq >= 0 ->
      (* strict by default: an "ev" tag no emitter produces is a lie about
         provenance, not a format quirk — name it instead of nodding *)
      if lax || List.mem ev Event.all_names then Ok ()
      else Error (Printf.sprintf "unknown event kind %S" ev)
    | Some (Json.Str _), _ -> Error "missing or invalid \"seq\" field"
    | _, _ -> Error "missing or invalid \"ev\" field")

let check_ndjson ?(lax = false) text =
  let lines = String.split_on_char '\n' text in
  let rec go i count = function
    | [] -> Ok count
    | line :: rest ->
      let line = String.trim line in
      if line = "" then go (i + 1) count rest
      else (
        match check_ndjson_line ~lax line with
        | Ok () -> go (i + 1) (count + 1) rest
        | Error e -> Error (Printf.sprintf "line %d: %s" i e))
  in
  go 1 0 lines

(* ------------------------------------------------------------------ *)

let summary_json ?(spans = []) ?(tools = []) () =
  (* Key the tool rows by name, never by caller position: merge duplicate
     names (sum counters field-wise, merge histograms) and sort, so a
     five-backend summary renders identically no matter which backends ran,
     in what order they registered, or how many instances each spawned. *)
  let merged = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (name, counters, hists) ->
      match Hashtbl.find_opt merged name with
      | None ->
        Hashtbl.replace merged name
          (counters, Histogram.merge_set (Histogram.create_set ()) hists)
      | Some (acc_counters, acc_hists) ->
        let sum =
          List.map
            (fun (k, v) ->
              ( k,
                v
                + (match List.assoc_opt k counters with
                  | Some w -> w
                  | None -> 0) ))
            acc_counters
          @ List.filter
              (fun (k, _) -> not (List.mem_assoc k acc_counters))
              counters
        in
        Hashtbl.replace merged name
          (sum, Histogram.merge_set acc_hists hists))
    tools;
  Hashtbl.iter (fun name _ -> order := name :: !order) merged;
  let names = List.sort_uniq compare !order in
  let tool_json name =
    let counters, hists = Hashtbl.find merged name in
    Json.Obj
      [
        ("tool", Json.Str name);
        ( "counters",
          Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) counters) );
        ("histograms", Histogram.set_to_json hists);
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.Str "giantsan-summary/v1");
         ("tools", Json.List (List.map tool_json names));
         ("spans", Json.List (List.map Span.to_json spans));
       ])

(* ------------------------------------------------------------------ *)

type bench_profile = {
  bp_profile : string;
  bp_config : string;
  bp_sim_ns : float;
  bp_ops : int;
  bp_shadow_loads : int;
  bp_shadow_stores : int;
  bp_region_checks : int;
  bp_fast_checks : int;
  bp_slow_checks : int;
  bp_word_checks : int;
}

type service_row = {
  sv_scope : string;
  sv_tenants : int;
  sv_windows : int;
  sv_ops : int;
  sv_errors : int;
  sv_breaches : int;
  sv_ops_per_sec : float;
  sv_latency_p50 : float;
  sv_latency_p99 : float;
  sv_latency_p999 : float;
}

let service_row_json r =
  Json.Obj
    [
      ("scope", Json.Str r.sv_scope);
      ("tenants", Json.Int r.sv_tenants);
      ("windows", Json.Int r.sv_windows);
      ("ops", Json.Int r.sv_ops);
      ("errors", Json.Int r.sv_errors);
      ("breaches", Json.Int r.sv_breaches);
      ("ops_per_sec", Json.Float r.sv_ops_per_sec);
      ("latency_p50", Json.Float r.sv_latency_p50);
      ("latency_p99", Json.Float r.sv_latency_p99);
      ("latency_p999", Json.Float r.sv_latency_p999);
    ]

let bench_json ~profiles ?(service = []) () =
  let profile_json p =
    let checks = p.bp_region_checks in
    let fast_ratio =
      if checks = 0 then 0.0
      else float_of_int p.bp_fast_checks /. float_of_int checks
    in
    Json.Obj
      [
        ("profile", Json.Str p.bp_profile);
        ("config", Json.Str p.bp_config);
        ("sim_ns", Json.Float p.bp_sim_ns);
        ("ops", Json.Int p.bp_ops);
        ( "ns_per_op",
          Json.Float
            (if p.bp_ops = 0 then 0.0
             else p.bp_sim_ns /. float_of_int p.bp_ops) );
        ("shadow_loads", Json.Int p.bp_shadow_loads);
        ("shadow_stores", Json.Int p.bp_shadow_stores);
        ("region_checks", Json.Int checks);
        ("fast_checks", Json.Int p.bp_fast_checks);
        ("slow_checks", Json.Int p.bp_slow_checks);
        ("word_checks", Json.Int p.bp_word_checks);
        ("fast_path_ratio", Json.Float fast_ratio);
        ( "word_path_ratio",
          Json.Float
            (if checks = 0 then 0.0
             else float_of_int p.bp_word_checks /. float_of_int checks) );
      ]
  in
  Json.to_string
    (Json.Obj
       ([
          ("schema", Json.Str "giantsan-bench/v1");
          ("profiles", Json.List (List.map profile_json profiles));
        ]
       @ (if service = [] then []
          else [ ("service", Json.List (List.map service_row_json service)) ])))

(* Round-trip parser for the [service] section (the sustained-traffic rows
   the [serve] subcommand and the bench export write): used by the export
   round-trip tests and available to external consumers of the schema. *)
let parse_bench_service text =
  match Json.parse text with
  | Error e -> Error ("invalid JSON: " ^ e)
  | Ok json -> (
    let ( let* ) = Result.bind in
    let str k obj =
      match Json.member k obj with
      | Some (Json.Str s) -> Ok s
      | _ -> Error (Printf.sprintf "missing string field %S" k)
    in
    let int_ k obj =
      match Json.member k obj with
      | Some (Json.Int i) -> Ok i
      | _ -> Error (Printf.sprintf "missing int field %S" k)
    in
    let num k obj =
      match Json.member k obj with
      | Some (Json.Float f) -> Ok f
      | Some (Json.Int i) -> Ok (float_of_int i)
      | _ -> Error (Printf.sprintf "missing numeric field %S" k)
    in
    let row obj =
      let* sv_scope = str "scope" obj in
      let* sv_tenants = int_ "tenants" obj in
      let* sv_windows = int_ "windows" obj in
      let* sv_ops = int_ "ops" obj in
      let* sv_errors = int_ "errors" obj in
      let* sv_breaches = int_ "breaches" obj in
      let* sv_ops_per_sec = num "ops_per_sec" obj in
      let* sv_latency_p50 = num "latency_p50" obj in
      let* sv_latency_p99 = num "latency_p99" obj in
      let* sv_latency_p999 = num "latency_p999" obj in
      Ok
        {
          sv_scope; sv_tenants; sv_windows; sv_ops; sv_errors; sv_breaches;
          sv_ops_per_sec; sv_latency_p50; sv_latency_p99; sv_latency_p999;
        }
    in
    match Json.member "service" json with
    | Some (Json.List l) ->
      List.fold_left
        (fun acc obj ->
          let* acc = acc in
          let* r = row obj in
          Ok (r :: acc))
        (Ok []) l
      |> Result.map List.rev
    | None -> Ok []
    | Some _ -> Error "\"service\" is not a list")

(* ------------------------------------------------------------------ *)
(* Perf gate: compare two BENCH_giantsan.json documents                 *)
(* ------------------------------------------------------------------ *)

(* The gate only reads the [profiles] section. The simulated cost sweep is
   deterministic (seeded specgen, event-count cost model), so the event
   counts must match the baseline exactly and ns/op may drift only within
   the tolerance. Sections it does not know (the [groups] and [spans] of
   older documents) are ignored. *)

let gate_count_fields =
  [ "ops"; "shadow_loads"; "shadow_stores"; "region_checks"; "fast_checks";
    "slow_checks"; "word_checks" ]

type gate_profile = {
  g_profile : string;
  g_config : string;
  g_ns_per_op : float;
  g_counts : (string * int) list;
}

let parse_bench_profiles text =
  match Json.parse text with
  | Error e -> Error ("invalid JSON: " ^ e)
  | Ok json -> (
    let str k obj =
      match Json.member k obj with Some (Json.Str s) -> Ok s
      | _ -> Error (Printf.sprintf "missing string field %S" k)
    in
    let num k obj =
      match Json.member k obj with
      | Some (Json.Float f) -> Ok f
      | Some (Json.Int i) -> Ok (float_of_int i)
      | _ -> Error (Printf.sprintf "missing numeric field %S" k)
    in
    let int_ k obj =
      match Json.member k obj with Some (Json.Int i) -> Ok i
      | _ -> Error (Printf.sprintf "missing int field %S" k)
    in
    let ( let* ) = Result.bind in
    let profile obj =
      let* p = str "profile" obj in
      let* c = str "config" obj in
      let* ns = num "ns_per_op" obj in
      let* counts =
        List.fold_left
          (fun acc k ->
            let* acc = acc in
            let* v = int_ k obj in
            Ok ((k, v) :: acc))
          (Ok []) gate_count_fields
      in
      Ok { g_profile = p; g_config = c; g_ns_per_op = ns;
           g_counts = List.rev counts }
    in
    match Json.member "profiles" json with
    | Some (Json.List l) ->
      List.fold_left
        (fun acc obj ->
          let* acc = acc in
          let* p = profile obj in
          Ok (p :: acc))
        (Ok []) l
      |> Result.map List.rev
    | _ -> Error "missing \"profiles\" list")

(* The gate as a rule table. A rule selects the row pairs it judges from
   the baseline and current rows, then a predicate and a message judge
   each pair. A selector fails only when rows it needs are absent, which
   makes the input unusable rather than passing. *)

type gate_rule = {
  rule : string;
  select :
    baseline:gate_profile list ->
    current:gate_profile list ->
    ((gate_profile * gate_profile) list, string) result;
  holds : gate_profile * gate_profile -> bool;
  message : gate_profile * gate_profile -> string;
}

type gate_verdict =
  | Pass of (string * int) list
  | Violations of (string * string) list
  | Unusable of string

let gate_tolerance = 0.25
let gate_min_word_ratio = 0.5
let gate_min_speedup = 5.0
let rule rule select holds message = { rule; select; holds; message }
let key g = (g.g_profile, g.g_config)
let pretty g = g.g_profile ^ "/" ^ g.g_config
let count k g = List.assoc k g.g_counts
let never _ = false
let find rows p c = List.find_opt (fun g -> key g = (p, c)) rows
let twin rows g = List.find_opt (fun r -> key r = key g) rows

(* the rows of [rows] with no twin in [other], each paired with itself *)
let unmatched rows other =
  List.filter_map
    (fun r -> if twin other r = None then Some (r, r) else None)
    rows

let joined ~baseline ~current =
  Ok
    (List.filter_map
       (fun b -> Option.map (fun c -> (b, c)) (twin current b))
       baseline)

let ratio (b, c) = c.g_ns_per_op /. b.g_ns_per_op

let compare_rules =
  [
    rule "rows-present"
      (fun ~baseline ~current -> Ok (unmatched baseline current))
      never
      (fun (b, _) -> pretty b ^ ": missing from current run");
    rule "rows-baselined"
      (fun ~baseline ~current -> Ok (unmatched current baseline))
      never
      (fun (c, _) -> pretty c ^ ": not in baseline — re-baseline to admit it");
    rule "counts-exact" joined
      (fun (b, c) -> b.g_counts = c.g_counts)
      (fun (b, c) ->
        List.filter_map
          (fun (k, v) ->
            if count k c = v then None
            else Some (Printf.sprintf "%s changed %d -> %d" k v (count k c)))
          b.g_counts
        |> String.concat ", "
        |> Printf.sprintf "%s: %s (deterministic count must match)" (pretty b));
    rule "ns-per-op" joined
      (fun p ->
        (fst p).g_ns_per_op <= 0.0
        || (ratio p <= 1.0 +. gate_tolerance
            && ratio p >= 1.0 -. gate_tolerance))
      (fun (b, c) ->
        if ratio (b, c) > 1.0 then
          Printf.sprintf
            "%s: ns/op regressed %.2f -> %.2f (%.0f%% > %.0f%% tolerance)"
            (pretty b) b.g_ns_per_op c.g_ns_per_op
            ((ratio (b, c) -. 1.0) *. 100.0)
            (gate_tolerance *. 100.0)
        else
          Printf.sprintf
            "%s: ns/op improved %.2f -> %.2f beyond tolerance — re-baseline \
             if intentional"
            (pretty b) b.g_ns_per_op c.g_ns_per_op);
  ]

(* GiantSan's Figure 11 reverse-traversal row, paired with ASan's *)
let fig11_reverse ~baseline:_ ~current =
  let reverse = find current "fig11.reverse-16KiB" in
  match (reverse "giantsan", reverse "asan") with
  | Some gs, Some asan -> Ok [ (gs, asan) ]
  | _ -> Error "no fig11.reverse-16KiB rows for both giantsan and asan"

let word_ratio g =
  let checks = count "region_checks" g in
  if checks = 0 then 0.0
  else float_of_int (count "word_checks" g) /. float_of_int checks

(* Every fuzz-mode backend's (rebuild, persistent) pair, and the rows
   whose other mode is absent, each paired with itself. *)
let fuzzmode ~current =
  let mode m b = find current ("fuzzmode." ^ m) b in
  if mode "rebuild" "giantsan" = None then
    Error "no fuzzmode.* rows for the giantsan backend"
  else
    List.filter_map
      (fun g ->
        if String.starts_with ~prefix:"fuzzmode." g.g_profile then
          Some g.g_config
        else None)
      current
    |> List.sort_uniq compare
    |> List.partition_map (fun b ->
           match (mode "rebuild" b, mode "persistent" b) with
           | Some rb, Some ps -> Either.Left (rb, ps)
           | Some g, None | None, Some g -> Either.Right (g, g)
           | None, None -> assert false)
    |> Result.ok

let fuzzmode_pairs ~baseline:_ ~current = Result.map fst (fuzzmode ~current)
let speedup (rb, ps) = rb.g_ns_per_op /. ps.g_ns_per_op

let shape_rules =
  [
    rule "fig11-word-path" fig11_reverse
      (fun (gs, _) -> word_ratio gs >= gate_min_word_ratio)
      (fun (gs, _) ->
        Printf.sprintf
          "reverse word-path ratio %.3f below the %.3f floor (%d of %d checks)"
          (word_ratio gs) gate_min_word_ratio (count "word_checks" gs)
          (count "region_checks" gs));
    rule "fig11-order" fig11_reverse
      (fun (gs, asan) -> gs.g_ns_per_op <= asan.g_ns_per_op)
      (fun (gs, asan) ->
        Printf.sprintf
          "GiantSan reverse %.2f ns/op is slower than ASan's %.2f — the \
           fig11 regression is back"
          gs.g_ns_per_op asan.g_ns_per_op);
    rule "fuzzmode-rows"
      (fun ~baseline:_ ~current -> Result.map snd (fuzzmode ~current))
      never
      (fun (g, _) ->
        Printf.sprintf "backend %s is missing one of its two mode rows"
          g.g_config);
    rule "fuzzmode-counts" fuzzmode_pairs
      (fun (rb, ps) -> rb.g_counts = ps.g_counts)
      (fun (rb, _) ->
        Printf.sprintf
          "backend %s: event counts differ between modes — a restored run \
           is not equivalent to a fresh one"
          rb.g_config);
    rule "fuzzmode-persistent" fuzzmode_pairs
      (fun (rb, ps) -> ps.g_ns_per_op <= rb.g_ns_per_op)
      (fun (rb, ps) ->
        Printf.sprintf
          "backend %s: persistent %.1f ns/exec is slower than rebuild %.1f"
          rb.g_config ps.g_ns_per_op rb.g_ns_per_op);
    rule "fuzzmode-speedup"
      (fun ~baseline ~current ->
        fuzzmode_pairs ~baseline ~current
        |> Result.map (List.filter (fun (rb, _) -> rb.g_config = "giantsan")))
      (fun p -> (snd p).g_ns_per_op <= 0.0 || speedup p >= gate_min_speedup)
      (fun (rb, ps) ->
        Printf.sprintf
          "giantsan speedup %.2fx below the %.2fx floor (rebuild %.0f \
           execs/sec, persistent %.0f)"
          (speedup (rb, ps)) gate_min_speedup (1e9 /. rb.g_ns_per_op)
          (1e9 /. ps.g_ns_per_op));
  ]

let gate_rules = compare_rules @ shape_rules

let run_rules rules ~baseline ~current =
  match (parse_bench_profiles baseline, parse_bench_profiles current) with
  | Error e, _ -> Unusable ("baseline: " ^ e)
  | _, Error e -> Unusable ("current: " ^ e)
  | Ok baseline, Ok current -> (
    let select r =
      match r.select ~baseline ~current with
      | Ok pairs -> Either.Left (r, pairs)
      | Error e -> Either.Right e
    in
    let broken (r, pairs) =
      List.filter_map
        (fun p -> if r.holds p then None else Some (r.rule, r.message p))
        pairs
    in
    match List.partition_map select rules with
    | _, e :: _ -> Unusable e
    | judged, [] -> (
      match List.concat_map broken judged with
      | [] -> Pass (List.map (fun (r, ps) -> (r.rule, List.length ps)) judged)
      | violations -> Violations violations))

let gate = run_rules gate_rules

let compare_bench ~baseline ~current =
  match run_rules compare_rules ~baseline ~current with
  | Pass judged -> Ok (List.assoc "counts-exact" judged)
  | Violations vs -> Error (List.map snd vs)
  | Unusable e -> Error [ e ]

let write_file path body =
  let oc = open_out path in
  output_string oc body;
  output_char oc '\n';
  close_out oc
