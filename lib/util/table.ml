type align = Left | Right

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    match align with
    | Left -> s ^ String.make (width - n) ' '
    | Right -> String.make (width - n) ' ' ^ s

let render ?aligns rows =
  match rows with
  | [] -> ""
  | header :: _ ->
    let ncols = List.length header in
    assert (List.for_all (fun r -> List.length r = ncols) rows);
    let aligns =
      match aligns with
      | Some a ->
        assert (List.length a = ncols);
        Array.of_list a
      | None -> Array.init ncols (fun i -> if i = 0 then Left else Right)
    in
    let widths = Array.make ncols 0 in
    List.iter
      (List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)))
      rows;
    let buf = Buffer.create 1024 in
    let emit_row row =
      List.iteri
        (fun i cell ->
          if i > 0 then Buffer.add_string buf "  ";
          Buffer.add_string buf (pad aligns.(i) widths.(i) cell))
        row;
      Buffer.add_char buf '\n'
    in
    let rule () =
      let total = Array.fold_left ( + ) 0 widths + (2 * (ncols - 1)) in
      Buffer.add_string buf (String.make total '-');
      Buffer.add_char buf '\n'
    in
    (match rows with
    | h :: rest ->
      emit_row h;
      rule ();
      List.iter emit_row rest
    | [] -> ());
    Buffer.contents buf

let print ?aligns rows = print_string (render ?aligns rows)
let fpct f = Printf.sprintf "%.2f%%" f
let f2 f = Printf.sprintf "%.2f" f

let shortest_float f =
  let better s best =
    String.length s < String.length best
    || String.length s = String.length best
       && String.contains best 'e'
       && not (String.contains s 'e')
  in
  (* %.17g always reads back as [f], so it is the fallback *)
  let rec go p best =
    if p > 17 then best
    else
      let s = Printf.sprintf "%.*g" p f in
      go (p + 1)
        (if float_of_string s = f && better s best then s else best)
  in
  go 1 (Printf.sprintf "%.17g" f)
