(* Do two sets of benchmark runs agree?

     agree.exe A.json... -- B.json...

   Each file is one run.sh result: {"seed", "trace", "workloads": {W:
   {"correct", "attempted", "failed", "metrics"}}}; all files are runs of
   one seed. For every workload and every end-to-end metric that
   BENCHMARK.json (in the current directory) lists, the medians over each
   side's runs may differ by at most the metric's bound, as a share of
   side A's median. A metric in sim_ns is computed from event counts,
   which repeat exactly for a seed, so its medians must be equal whatever
   its bound. A run in which an oracle failed agrees with nothing. Prints
   every offending (workload, metric, spread, bound) and exits 1 if there
   is one; exits 2, naming the problem, on input it cannot read. Reading
   is total: malformed JSON, a missing key or a value of the wrong type is
   an error message, never an exception. *)

module Json = Giantsan_telemetry.Json
module Stats = Giantsan_util.Stats

let ( let* ) = Result.bind

let parse path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
    match Json.parse text with
    | Ok v -> Ok v
    | Error e -> Error (Printf.sprintf "%s: %s" path e)
    | exception Stack_overflow -> Error (path ^ ": nested too deeply"))

let field path key v =
  match Json.member key v with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "%s: missing key %S" path key)

let number path what = function
  | Json.Int i -> Ok (float_of_int i)
  | Json.Float f -> Ok f
  | _ -> Error (Printf.sprintf "%s: %s is not a number" path what)

let members path what = function
  | Json.Obj kvs -> Ok kvs
  | _ -> Error (Printf.sprintf "%s: %s is not an object" path what)

let all f l =
  List.fold_right
    (fun x acc ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    l (Ok [])

(* (name, bound) of every end-to-end metric; 0 for an exact one *)
let bounds () =
  let path = "BENCHMARK.json" in
  let* v = parse path in
  let* e2e = field path "end_to_end" v in
  let* l =
    match e2e with
    | Json.List l -> Ok l
    | _ -> Error (path ^ ": end_to_end is not a list")
  in
  all
    (fun m ->
      let* name = field path "name" m in
      let* name =
        match name with
        | Json.Str s -> Ok s
        | _ -> Error (path ^ ": a metric name is not a string")
      in
      let* b = field path "bound" m in
      let* b = number path ("the bound of " ^ name) b in
      let* u = field path "unit" m in
      Ok (name, if u = Json.Str "sim_ns" then 0. else b))
    l

(* workload -> (failed, metric -> value) *)
let run path =
  let* v = parse path in
  let* ws = field path "workloads" v in
  let* ws = members path "workloads" ws in
  all
    (fun (w, r) ->
      let* failed = field path "failed" r in
      let* failed = number path (w ^ ".failed") failed in
      let* ms = field path "metrics" r in
      let* ms = members path (w ^ ".metrics") ms in
      let* ms =
        all
          (fun (k, m) ->
            let* x = field path "value" m in
            let* x = number path (w ^ "." ^ k) x in
            Ok (k, x))
          ms
      in
      Ok (w, (failed, ms)))
    ws

let value side_runs w m =
  all
    (fun (path, runs) ->
      match List.assoc_opt w runs with
      | None -> Error (Printf.sprintf "%s: no workload %s" path w)
      | Some (_, ms) -> (
        match List.assoc_opt m ms with
        | None -> Error (Printf.sprintf "%s: %s has no metric %s" path w m)
        | Some x -> Ok x))
    side_runs

let compare_sides bounds a b =
  let workloads = match a with (_, runs) :: _ -> List.map fst runs | [] -> [] in
  let failures =
    List.concat_map
      (fun w ->
        List.concat_map
          (fun (_, runs) ->
            match List.assoc_opt w runs with
            | Some (failed, _) when failed > 0. -> [ (w, "failed", failed, 0.) ]
            | _ -> [])
          (a @ b))
      workloads
  in
  let* spreads =
    all
      (fun w ->
        all
          (fun (m, bound) ->
            let* xa = value a w m in
            let* xb = value b w m in
            let ma = Stats.median xa and mb = Stats.median xb in
            let spread =
              if ma = mb then 0. else Float.abs (mb -. ma) /. Float.abs ma
            in
            Ok (w, m, spread, bound))
          bounds)
      workloads
  in
  Ok
    (failures
    @ List.filter (fun (_, _, s, b) -> s > b) (List.concat spreads),
     List.length workloads)

let () =
  let rec split a = function
    | "--" :: rest -> (List.rev a, rest)
    | x :: rest -> split (x :: a) rest
    | [] -> (List.rev a, [])
  in
  let a, b = split [] (List.tl (Array.to_list Sys.argv)) in
  if a = [] || b = [] then begin
    prerr_endline "usage: agree.exe A.json... -- B.json...";
    exit 2
  end;
  let read side = all (fun p -> Result.map (fun r -> (p, r)) (run p)) side in
  match
    let* bounds = bounds () in
    let* a = read a in
    let* b = read b in
    compare_sides bounds a b
  with
  | Error e ->
    prerr_endline ("agree: " ^ e);
    exit 2
  | Ok ([], n) ->
    Printf.printf "agree: %d workloads, every metric within its bound\n" n
  | Ok (offending, _) ->
    List.iter
      (fun (w, m, s, b) -> Printf.printf "%s %s spread=%.4f bound=%.4f\n" w m s b)
      offending;
    exit 1
