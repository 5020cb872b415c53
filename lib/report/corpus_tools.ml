module Table = Giantsan_util.Table
module Scenario = Giantsan_bugs.Scenario
module Difftest = Giantsan_bugs.Difftest
module Harness = Giantsan_bugs.Harness
module Runner = Giantsan_workload.Runner
module Softbound = Giantsan_bugs.Softbound
module Juliet = Giantsan_bugs.Juliet
module Magma = Giantsan_bugs.Magma
module Cves = Giantsan_bugs.Cves

let violations =
  [
    Difftest.V_overflow; Difftest.V_underflow; Difftest.V_far_jump;
    Difftest.V_uaf; Difftest.V_double_free; Difftest.V_mid_free;
  ]

(* the one-shot matrix's columns: the paper's tool set *)
let fuzz_tools = Runner.[ Giantsan; Asan; Asanmm; Lfp ]

type fuzz_row = {
  fr_label : string;
  fr_expect : [ `All | `None | `Giantsan_only ];
  fr_counts : (Runner.config * int) list;  (** detections per [fuzz_tools] *)
  fr_sb : int;
  fr_n : int;
}

let fuzz ?(jobs = 1) ~seed ~count () =
  let buf = Buffer.create 2048 in
  let anomalies = ref [] in
  let note fmt = Printf.ksprintf (fun s -> anomalies := s :: !anomalies) fmt in
  (* one shard per population: generation and the five detection counts are
     the expensive, side-effect-free part; anomaly notes and row rendering
     stay serial and in population order, so output is identical for every
     [jobs] *)
  let populations =
    ("clean", `None, `Clean)
    :: List.map
         (fun v ->
           let expect =
             match v with
             | Difftest.V_far_jump -> `Giantsan_only
             | _ -> `All
           in
           (Difftest.violation_name v, expect, `Buggy v))
         violations
  in
  let counted =
    Giantsan_parallel.Pool.map ~jobs
      (fun (fr_label, fr_expect, kind) ->
        let scenarios =
          List.init count (fun i ->
              match kind with
              | `Clean -> Difftest.gen_clean ~seed:(seed + i)
              | `Buggy v -> Difftest.gen_buggy ~seed:(seed + i) v)
        in
        let fr_sb =
          List.length
            (List.filter
               (Softbound.run_with_laundering ~launder_slots:[])
               scenarios)
        in
        {
          fr_label; fr_expect;
          fr_counts =
            List.map
              (fun t -> (t, Harness.count_detected t scenarios))
              fuzz_tools;
          fr_sb;
          fr_n = List.length scenarios;
        })
      populations
  in
  let rows =
    List.map
      (fun { fr_label = label; fr_expect; fr_counts; fr_sb = sb; fr_n = n } ->
        let missed tools =
          List.iter
            (fun t ->
              let c = List.assoc t fr_counts in
              if c < n then
                note "%s: %s missed %d" label (Runner.config_name t) (n - c))
            tools
        in
        (match fr_expect with
        | `All -> missed Runner.[ Giantsan; Asan; Asanmm ]
        | `None ->
          List.iter
            (fun (t, c) ->
              if c > 0 then
                note "%s: %s false positives: %d" label (Runner.config_name t)
                  c)
            fr_counts;
          if sb > 0 then note "%s: SoftBound false positives: %d" label sb
        | `Giantsan_only ->
          missed [ Runner.Giantsan ];
          let a = List.assoc Runner.Asan fr_counts in
          if a > 0 then note "%s: ASan unexpectedly caught %d" label a);
        (label :: List.map (fun (_, c) -> string_of_int c) fr_counts)
        @ [ string_of_int sb; string_of_int n ])
      counted
  in
  Buffer.add_string buf
    (Printf.sprintf
       "Differential fuzz: %d scenarios per row (seed %d)\n\n" count seed);
  Buffer.add_string buf
    (Table.render
       ((("population" :: List.map Runner.config_name fuzz_tools)
        @ [ "SoftBound"; "n" ])
       :: rows));
  (match List.rev !anomalies with
  | [] -> Buffer.add_string buf "\nNo anomalies.\n"
  | l ->
    Buffer.add_string buf "\nANOMALIES:\n";
    List.iter (fun a -> Buffer.add_string buf ("  " ^ a ^ "\n")) l);
  Buffer.contents buf

(* Deterministic corpus-file corruption for the chaos engine's input-fault
   plane. The mutation kinds mirror what actually goes wrong with files on
   disk: truncation (partial write), garbled bytes (bit rot), a duplicated
   line (botched merge), and a deleted line (hand edit). Corpus parsing
   revalidates the buggy label against recomputed ground truth, so every
   corruption must end in either a parse rejection or a scenario that is
   still label-consistent — silent acceptance of a wrong verdict is
   structurally impossible, and the chaos engine asserts exactly that. *)
let corrupt_text ~seed text =
  let rng = Giantsan_util.Rng.create seed in
  let n = String.length text in
  match Giantsan_util.Rng.int rng 4 with
  | 0 ->
    (* truncate mid-file *)
    let keep = if n <= 1 then 0 else Giantsan_util.Rng.int rng n in
    ("truncated", String.sub text 0 keep)
  | 1 ->
    (* garble a handful of bytes *)
    let b = Bytes.of_string text in
    let flips = 1 + Giantsan_util.Rng.int rng 8 in
    for _ = 1 to flips do
      if n > 0 then begin
        let p = Giantsan_util.Rng.int rng n in
        Bytes.set b p (Char.chr (Giantsan_util.Rng.int rng 256))
      end
    done;
    ("garbled", Bytes.to_string b)
  | 2 ->
    (* duplicate one line *)
    let lines = String.split_on_char '\n' text in
    let k = List.length lines in
    if k = 0 then ("dup-line", text)
    else begin
      let at = Giantsan_util.Rng.int rng k in
      let out =
        List.concat
          (List.mapi (fun i l -> if i = at then [ l; l ] else [ l ]) lines)
      in
      ("dup-line", String.concat "\n" out)
    end
  | _ ->
    (* drop one line *)
    let lines = String.split_on_char '\n' text in
    let k = List.length lines in
    if k <= 1 then ("drop-line", "")
    else begin
      let at = Giantsan_util.Rng.int rng k in
      let out = List.filteri (fun i _ -> i <> at) lines in
      ("drop-line", String.concat "\n" out)
    end

let validate () =
  let buf = Buffer.create 1024 in
  let check label scenarios =
    let errors = Harness.validate_corpus scenarios in
    Buffer.add_string buf
      (Printf.sprintf "%-28s %6d cases  %s\n" label (List.length scenarios)
         (if errors = [] then "OK"
          else Printf.sprintf "%d LABEL ERRORS" (List.length errors)));
    List.iteri
      (fun i e -> if i < 5 then Buffer.add_string buf ("    " ^ e ^ "\n"))
      errors
  in
  List.iter
    (fun cwe ->
      check
        (Printf.sprintf "juliet CWE-%d (buggy+clean)" cwe)
        (Juliet.buggy_cases cwe @ Juliet.clean_cases cwe))
    Juliet.cwe_ids;
  List.iter
    (fun p -> check ("magma " ^ p.Magma.mg_name) (Magma.cases p))
    Magma.projects;
  check "cves"
    (List.map (fun (c : Cves.t) -> c.Cves.cve_scenario) Cves.all);
  check "difftest smoke"
    (List.init 200 (fun i ->
         if i mod 2 = 0 then Difftest.gen_clean ~seed:i
         else
           Difftest.gen_buggy ~seed:i
             (List.nth violations (i mod List.length violations))));
  Buffer.contents buf
