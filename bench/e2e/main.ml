(* One workload, one process:

     main.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
              [--out FILE]

   Prints every metric as "workload metric value unit", then, as the last
   line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
   metrics, or with --trace 1 the per-layer ones. --out writes the whole
   result (quartiles, rounds, fail rates, derived ratios, and the span log
   of a traced run) as JSON. Exits 1 if any output failed its oracle, 2 on
   bad arguments. *)

module Json = Giantsan_telemetry.Json
module M = E2e.Measure

let usage () =
  prerr_endline
    "usage: main.exe --workload W [--seed N] [--seconds S] [--trace 0|1] \
     [--out FILE]";
  prerr_endline
    ("workloads: "
    ^ String.concat ", " (List.map (fun w -> w.E2e.Workloads.name) E2e.Workloads.all));
  exit 2

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 15.
  and trace = ref false and out = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      (match E2e.Workloads.find w with Some w -> workload := Some w | None -> usage ());
      parse rest
    | "--seed" :: n :: rest ->
      (match int_of_string_opt n with Some n -> seed := n | None -> usage ());
      parse rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with
      | Some s when s >= 0. -> seconds := s
      | _ -> usage ());
      parse rest
    | "--trace" :: t :: rest ->
      (match t with "0" -> trace := false | "1" -> trace := true | _ -> usage ());
      parse rest
    | "--out" :: f :: rest ->
      out := Some f;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let workload = match !workload with Some w -> w | None -> usage () in
  let cfg = M.config ~seconds:!seconds ~trace:!trace ~seed:!seed workload in
  let r = M.run cfg in
  let name = workload.E2e.Workloads.name in
  List.iter
    (fun m -> Printf.printf "%s %s %.6g %s\n" name m.M.name m.M.value m.M.unit_)
    (r.M.metrics @ r.M.info);
  Option.iter
    (fun f ->
      Out_channel.with_open_text f (fun oc ->
          output_string oc (Json.to_string r.M.detail);
          output_char oc '\n'))
    !out;
  print_endline (Json.to_string (M.result_json r));
  exit (if r.M.correct then 0 else 1)
