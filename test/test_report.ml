(* Smoke tests of the experiment drivers (quick variants). *)

module Experiments = Giantsan_report.Experiments

let contains = Astring_contains.contains

let test_table1 () =
  let o = Experiments.table1 () in
  Alcotest.(check bool) "has rows" true (contains o.Experiments.o_body "memset");
  Alcotest.(check bool) "mentions loads" true
    (contains o.Experiments.o_body "loads")

let test_table2_quick () =
  let o = Experiments.table2 ~quick:true () in
  Alcotest.(check bool) "geomeans present" true
    (contains o.Experiments.o_body "Geometric Means");
  Alcotest.(check bool) "CE rendered for LFP" true
    (contains o.Experiments.o_body "CE")

let test_fig10_quick () =
  let o = Experiments.fig10 ~quick:true () in
  Alcotest.(check bool) "columns" true
    (contains o.Experiments.o_body "Eliminated")

let test_table5_scaled () =
  let o = Experiments.table5 ~scale:100 () in
  Alcotest.(check bool) "php row" true (contains o.Experiments.o_body "php")

(* Figure 11 prints the gated bench rows' ns/op: the 16 KiB reverse
   row's GiantSan and ASan cells are fig11_row's sim_ns / ops. *)
let test_fig11_cells_are_gated_rows () =
  let rec row16 in_reverse = function
    | [] -> Alcotest.fail "no 16 KiB reverse row"
    | l :: rest ->
      if in_reverse && String.starts_with ~prefix:"16 " l then l
      else row16 (in_reverse || l = "Figure 11 (Reverse traversal)") rest
  in
  let row =
    row16 false
      (String.split_on_char '\n' (Experiments.fig11 ()).Experiments.o_body)
  in
  let cell id =
    let r = Experiments.fig11_row id ~pattern:`Reverse ~size:16384 in
    Giantsan_telemetry.Export.(
      Printf.sprintf "%.3f" (r.bp_sim_ns /. float_of_int r.bp_ops))
  in
  let module B = Giantsan_policy.Backend in
  Alcotest.(check (list string)) "16 KiB GiantSan and ASan cells"
    [ cell B.Giantsan; cell B.Asan ]
    (match List.filter (( <> ) "") (String.split_on_char ' ' row) with
    | [ "16"; _native; giantsan; asan ] -> [ giantsan; asan ]
    | _ -> [ row ])

let test_run_dispatch () =
  Alcotest.(check int) "seven experiments" 7 (List.length Experiments.all_ids);
  List.iter
    (fun id ->
      match id with
      | "table2" | "fig10" | "table3" | "table5" ->
        (* covered by the dedicated quick tests above / too heavy here *)
        ()
      | id ->
        let o = Experiments.run ~quick:true id in
        Alcotest.(check string) "id round-trips" id o.Experiments.o_id;
        if id = "fig11" then
          Alcotest.(check string) "fig11 is the same at --quick"
            (Experiments.run id).Experiments.o_body o.Experiments.o_body)
    Experiments.all_ids;
  Alcotest.check_raises "unknown id"
    (Invalid_argument "Experiments.run: unknown experiment nope") (fun () ->
      ignore (Experiments.run "nope"))

let test_fuzz_tool_is_anomaly_free () =
  let body = Giantsan_report.Corpus_tools.fuzz ~seed:42 ~count:25 () in
  Alcotest.(check bool) "matrix rendered" true (contains body "far-jump");
  Alcotest.(check bool) "no anomalies" true (contains body "No anomalies")

let test_validate_tool_all_ok () =
  let body = Giantsan_report.Corpus_tools.validate () in
  Alcotest.(check bool) "no label errors" false (contains body "LABEL ERRORS");
  Alcotest.(check bool) "covers magma" true (contains body "magma php")

let suite =
  ( "report",
    [
      Helpers.qt "table1 driver" `Quick test_table1;
      Helpers.qt "table2 driver (quick)" `Slow test_table2_quick;
      Helpers.qt "fig10 driver (quick)" `Slow test_fig10_quick;
      Helpers.qt "table5 driver (scaled)" `Quick test_table5_scaled;
      Helpers.qt "fig11 driver (tiny)" `Quick test_fig11_cells_are_gated_rows;
      Helpers.qt "dispatch" `Quick test_run_dispatch;
      Helpers.qt "fuzz tool: anomaly-free" `Quick test_fuzz_tool_is_anomaly_free;
      Helpers.qt "validate tool: corpora OK" `Slow test_validate_tool_all_ok;
    ] )
