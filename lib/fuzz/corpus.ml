module Scenario = Giantsan_bugs.Scenario
module Memobj = Giantsan_memsim.Memobj

let kind_of_string = function
  | "heap" -> Some Memobj.Heap
  | "stack" -> Some Memobj.Stack
  | "global" -> Some Memobj.Global
  | _ -> None

let step_to_string = function
  | Scenario.Alloc { slot; size; kind } ->
    Printf.sprintf "alloc %d %d %s" slot size (Memobj.kind_name kind)
  | Scenario.Free_slot slot -> Printf.sprintf "free %d" slot
  | Scenario.Free_at { slot; delta } -> Printf.sprintf "free_at %d %d" slot delta
  | Scenario.Access { slot; off; width } ->
    Printf.sprintf "access %d %d %d" slot off width
  | Scenario.Access_loop { slot; from_; to_; step; width } ->
    Printf.sprintf "loop %d %d %d %d %d" slot from_ to_ step width
  | Scenario.Region { slot; off; len } ->
    Printf.sprintf "region %d %d %d" slot off len
  | Scenario.Access_null { off; width } -> Printf.sprintf "null %d %d" off width

let to_string (t : Scenario.t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "# giantsan fuzz scenario\n";
  Buffer.add_string buf (Printf.sprintf "id %s\n" t.Scenario.sc_id);
  Buffer.add_string buf (Printf.sprintf "cwe %d\n" t.Scenario.sc_cwe);
  Buffer.add_string buf (Printf.sprintf "buggy %b\n" t.Scenario.sc_buggy);
  List.iter
    (fun s ->
      Buffer.add_string buf (step_to_string s);
      Buffer.add_char buf '\n')
    t.Scenario.sc_steps;
  Buffer.contents buf

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

(* An offset a runtime can add to a base and a width without leaving the
   int range. *)
let offset_ok off =
  off >= -Scenario.max_replay_offset && off <= Scenario.max_replay_offset

let of_string text =
  let id = ref "corpus" and cwe = ref 0 and buggy = ref None in
  let steps = ref [] in
  let error = ref None in
  let fail lineno line =
    if !error = None then
      error := Some (Printf.sprintf "line %d: cannot parse %S" lineno line)
  in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let line = String.trim (strip_comment line) in
      if line <> "" then
        match String.split_on_char ' ' line |> List.filter (( <> ) "") with
        | [ "id"; v ] -> id := v
        | [ "cwe"; v ] -> (
          match int_of_string_opt v with
          | Some n -> cwe := n
          | None -> fail lineno line)
        | [ "buggy"; v ] -> (
          match bool_of_string_opt v with
          | Some b -> buggy := Some b
          | None -> fail lineno line)
        | [ "alloc"; slot; size; kind ] -> (
          match (int_of_string_opt slot, int_of_string_opt size, kind_of_string kind) with
          | Some slot, Some size, Some kind when size >= 0 ->
            steps := Scenario.Alloc { slot; size; kind } :: !steps
          | _ -> fail lineno line)
        | [ "free"; slot ] -> (
          match int_of_string_opt slot with
          | Some slot -> steps := Scenario.Free_slot slot :: !steps
          | None -> fail lineno line)
        | [ "free_at"; slot; delta ] -> (
          match (int_of_string_opt slot, int_of_string_opt delta) with
          | Some slot, Some delta ->
            steps := Scenario.Free_at { slot; delta } :: !steps
          | _ -> fail lineno line)
        | [ "access"; slot; off; width ] -> (
          match
            (int_of_string_opt slot, int_of_string_opt off, int_of_string_opt width)
          with
          | Some slot, Some off, Some width when width >= 1 && offset_ok off ->
            steps := Scenario.Access { slot; off; width } :: !steps
          | _ -> fail lineno line)
        | [ "loop"; slot; from_; to_; step; width ] -> (
          match
            ( int_of_string_opt slot,
              int_of_string_opt from_,
              int_of_string_opt to_,
              int_of_string_opt step,
              int_of_string_opt width )
          with
          | Some slot, Some from_, Some to_, Some step, Some width
            when step <> 0 && width >= 1 && offset_ok from_ && offset_ok to_
                 && Scenario.loop_bounded ~from_ ~to_ ~step ->
            steps := Scenario.Access_loop { slot; from_; to_; step; width } :: !steps
          | _ -> fail lineno line)
        | [ "region"; slot; off; len ] -> (
          match
            (int_of_string_opt slot, int_of_string_opt off, int_of_string_opt len)
          with
          | Some slot, Some off, Some len when offset_ok off ->
            steps := Scenario.Region { slot; off; len } :: !steps
          | _ -> fail lineno line)
        | [ "null"; off; width ] -> (
          match (int_of_string_opt off, int_of_string_opt width) with
          | Some off, Some width when width >= 1 && offset_ok off ->
            steps := Scenario.Access_null { off; width } :: !steps
          | _ -> fail lineno line)
        | _ -> fail lineno line)
    (String.split_on_char '\n' text);
  match !error with
  | Some e -> Error e
  | None ->
    let steps = List.rev !steps in
    let truth =
      Scenario.ground_truth
        { sc_id = !id; sc_cwe = !cwe; sc_buggy = false; sc_steps = steps }
    in
    let label = Option.value ~default:truth !buggy in
    if label <> truth then
      Error
        (Printf.sprintf "%s: labelled %s but ground truth says %s" !id
           (if label then "buggy" else "clean")
           (if truth then "buggy" else "clean"))
    else
      Ok { Scenario.sc_id = !id; sc_cwe = !cwe; sc_buggy = label; sc_steps = steps }

let save_file ?(trace = []) path t =
  let oc = open_out path in
  output_string oc (to_string t);
  if trace <> [] then begin
    (* '#' lines are stripped by [of_string], so the annotated file stays
       replayable *)
    output_string oc "#\n# telemetry trace of this scenario (NDJSON):\n";
    List.iter (fun line -> output_string oc ("# trace: " ^ line ^ "\n")) trace
  end;
  close_out oc

let load_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error e -> Error e

let load_dir dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
    let names = Array.to_list names in
    List.filter_map
      (fun name ->
        let path = Filename.concat dir name in
        if Sys.is_directory path then None else Some (name, load_file path))
      (List.sort compare names)
