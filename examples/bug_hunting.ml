(* Bug hunting: run slices of the Juliet-shaped corpus and the CVE
   scenarios under all four tools and compare what each one catches.

   Run with: dune exec examples/bug_hunting.exe *)

module Harness = Giantsan_bugs.Harness
module Runner = Giantsan_workload.Runner
module Juliet = Giantsan_bugs.Juliet
module Cves = Giantsan_bugs.Cves
module Table = Giantsan_util.Table

let () =
  print_endline "== Detection across tools (Juliet slice: 40 cases per CWE) ==\n";
  let rows =
    List.map
      (fun cwe ->
        let cases =
          List.filteri (fun i _ -> i < 40) (Juliet.buggy_cases cwe)
        in
        Printf.sprintf "CWE-%d %s" cwe (Juliet.cwe_name cwe)
        :: List.map
             (fun tool ->
               string_of_int (Harness.count_detected tool cases))
             Harness.all_tools
        @ [ string_of_int (List.length cases) ])
      Juliet.cwe_ids
  in
  Table.print
    ((("CWE" :: List.map Runner.config_name Harness.all_tools) @ [ "cases" ])
    :: rows);

  print_endline "\n== CVE scenarios where the tools disagree ==\n";
  List.iter
    (fun (c : Cves.t) ->
      let verdicts =
        List.map (fun t -> Harness.detected t c.Cves.cve_scenario) Harness.all_tools
      in
      if List.exists not verdicts then begin
        Printf.printf "%s (%s, %s):\n" c.Cves.cve_id c.Cves.cve_program
          c.Cves.cve_class;
        List.iter2
          (fun tool found ->
            Printf.printf "  %-10s %s\n" (Runner.config_name tool)
              (if found then "detected" else "MISSED"))
          Harness.all_tools verdicts
      end)
    Cves.all;

  print_endline "\n== Why LFP misses: the rounding slack ==\n";
  let lfp = Harness.make_sanitizer Runner.Lfp in
  let gs = Harness.make_sanitizer Runner.Giantsan in
  let module San = Giantsan_sanitizer.Sanitizer in
  let module Memsim = Giantsan_memsim in
  let lo = lfp.San.malloc 600 and go = gs.San.malloc 600 in
  let lbase = lo.Memsim.Memobj.base and gbase = go.Memsim.Memobj.base in
  Printf.printf "char p[600] is placed in a %d-byte size class (slack %d)\n"
    (Giantsan_lfp.Size_class.round_up 600)
    (Giantsan_lfp.Size_class.slack 600);
  List.iter
    (fun off ->
      let l = lfp.San.access ~base:lbase ~addr:(lbase + off) ~width:1 in
      let g = gs.San.access ~base:gbase ~addr:(gbase + off) ~width:1 in
      Printf.printf "  p[%d]: LFP %-8s GiantSan %s\n" off
        (if l = None then "ok" else "caught")
        (if g = None then "ok" else "caught"))
    [ 599; 610; 700 ]
