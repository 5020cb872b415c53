module Shadow_mem = Giantsan_shadow.Shadow_mem

let segment_line m ~seg =
  Printf.sprintf "seg %5d [%d,%d)  %s" seg (8 * seg)
    (8 * (seg + 1))
    (State_code.describe (Shadow_mem.peek m seg))

let around m ~addr ?(radius = 4) () =
  let seg = addr / 8 in
  let buf = Buffer.create 256 in
  for s = Int.max 0 (seg - radius)
      to Int.min (Shadow_mem.segments m - 1) (seg + radius) do
    Buffer.add_string buf (if s = seg then "=> " else "   ");
    Buffer.add_string buf (segment_line m ~seg:s);
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let class_of v =
  if State_code.is_folded v then `Folded
  else if State_code.is_partial v then `Partial v
  else `Error v

let same_class a b =
  match a, b with
  | `Folded, `Folded -> true
  | `Partial x, `Partial y | `Error x, `Error y -> Int.equal x y
  | _ -> false

let class_name = function
  | `Folded -> "folded"
  | `Partial v -> State_code.describe v
  | `Error v -> State_code.describe v

let run_summary m ~lo ~hi =
  let lo_seg = lo / 8 and hi_seg = (hi + 7) / 8 in
  let runs = ref [] in
  (* word-wide scan: fetch 8 codes per (uncounted) word, walking lanes —
     same classing and output as the old per-byte walk, 8x fewer fetches *)
  let s = ref lo_seg in
  while !s < hi_seg do
    let w = Shadow_mem.peek_word m !s in
    let lanes = Int.min 8 (hi_seg - !s) in
    for k = 0 to lanes - 1 do
      let c = class_of (Shadow_mem.word_byte w k) in
      match !runs with
      | (c', n) :: rest when same_class c' c -> runs := (c', n + 1) :: rest
      | _ -> runs := (c, 1) :: !runs
    done;
    s := !s + 8
  done;
  String.concat ", "
    (List.rev_map
       (fun (c, n) -> Printf.sprintf "%dx %s" n (class_name c))
       !runs)
