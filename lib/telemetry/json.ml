type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if not (Float.is_finite f) then
      (* JSON has no nan/infinity literal; null keeps the document valid *)
      Buffer.add_string buf "null"
    else if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string buf (Printf.sprintf "%.1f" f)
    else begin
      let digits = Printf.sprintf "%.17g" f in
      Buffer.add_string buf digits;
      (* an integral float of 16 or 17 digits needs a mark to parse back
         as a [Float] *)
      if not (String.exists (fun c -> c = '.' || c = 'e') digits) then
        Buffer.add_string buf ".0"
    end
  | Str s -> escape buf s
  | List l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        emit buf x)
      l;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape buf k;
        Buffer.add_char buf ':';
        emit buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 128 in
  emit buf v;
  Buffer.contents buf

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Parser: recursive descent over a string                             *)
(* ------------------------------------------------------------------ *)

exception Bad of string

(* deeper nesting is an error, not a stack overflow *)
let max_depth = 512

let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "at %d: %s" !pos msg)) in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub text !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  (* the four hex digits of a \u escape, exactly four *)
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let digit c =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> fail "bad \\u escape"
    in
    let v = ref 0 in
    for k = 0 to 3 do
      v := (!v lsl 4) lor digit text.[!pos + k]
    done;
    pos := !pos + 4;
    !v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match text.[!pos] with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          (if !pos >= n then fail "dangling escape"
           else
             match text.[!pos] with
             | '"' -> Buffer.add_char buf '"'; advance ()
             | '\\' -> Buffer.add_char buf '\\'; advance ()
             | '/' -> Buffer.add_char buf '/'; advance ()
             | 'n' -> Buffer.add_char buf '\n'; advance ()
             | 'r' -> Buffer.add_char buf '\r'; advance ()
             | 't' -> Buffer.add_char buf '\t'; advance ()
             | 'b' -> Buffer.add_char buf '\b'; advance ()
             | 'f' -> Buffer.add_char buf '\012'; advance ()
             | 'u' ->
               advance ();
               let code = hex4 () in
               if code >= 0xdc00 && code <= 0xdfff then
                 fail "lone surrogate in \\u escape";
               let code =
                 if code < 0xd800 || code > 0xdbff then code
                 else if !pos + 1 < n && text.[!pos] = '\\' && text.[!pos + 1] = 'u'
                 then begin
                   pos := !pos + 2;
                   let low = hex4 () in
                   if low < 0xdc00 || low > 0xdfff then
                     fail "lone surrogate in \\u escape";
                   0x10000 + ((code - 0xd800) lsl 10) + (low - 0xdc00)
                 end
                 else fail "lone surrogate in \\u escape"
               in
               Buffer.add_utf_8_uchar buf (Uchar.of_int code)
             | c -> fail (Printf.sprintf "bad escape \\%c" c));
          go ()
        | c -> Buffer.add_char buf c; advance (); go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char text.[!pos] do
      advance ()
    done;
    let s = String.sub text start (!pos - start) in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then
      match float_of_string_opt s with
      | Some f when Float.is_finite f -> Float f
      | Some _ -> fail ("number out of range " ^ s)
      | None -> fail ("bad number " ^ s)
    else
      match int_of_string_opt s with
      | Some i -> Int i
      | None -> fail ("bad number " ^ s)
  in
  let depth = ref 0 in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some ('{' | '[') when !depth >= max_depth -> fail "nested too deep"
    | Some '{' ->
      advance ();
      incr depth;
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        decr depth;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ((k, v) :: acc)
          | Some '}' -> advance (); decr depth; Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or } in object"
        in
        members []
      end
    | Some '[' ->
      advance ();
      incr depth;
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        decr depth;
        List []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elements (v :: acc)
          | Some ']' -> advance (); decr depth; List (List.rev (v :: acc))
          | _ -> fail "expected , or ] in array"
        in
        elements []
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %c" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg
