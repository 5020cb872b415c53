type t = {
  max_p999_ns : float option;
  max_error_rate : float option;
  min_ops_per_sec : float option;
}

let none = { max_p999_ns = None; max_error_rate = None; min_ops_per_sec = None }

let is_none t =
  t.max_p999_ns = None && t.max_error_rate = None && t.min_ops_per_sec = None

let parse s =
  let s = String.trim s in
  if s = "" || s = "none" then Ok none
  else begin
    let ( let* ) = Result.bind in
    let clause acc item =
      let* acc = acc in
      match String.index_opt item '=' with
      | None -> Error (Printf.sprintf "SLO clause %S is not key=value" item)
      | Some i ->
        let key = String.trim (String.sub item 0 i) in
        let v = String.trim (String.sub item (i + 1) (String.length item - i - 1)) in
        let* f =
          match float_of_string_opt v with
          | Some f when not (Float.is_finite f) ->
            Error (Printf.sprintf "SLO clause %S: %S is not a finite number" item v)
          | Some f when f >= 0.0 -> Ok f
          | _ -> Error (Printf.sprintf "SLO clause %S: bad number %S" item v)
        in
        let set old t =
          if Option.is_none old then Ok t
          else Error (Printf.sprintf "SLO key %S given twice" key)
        in
        (match key with
        | "p999" -> set acc.max_p999_ns { acc with max_p999_ns = Some f }
        | "err" when f > 1.0 ->
          Error (Printf.sprintf "SLO clause %S: err is a fraction, at most 1" item)
        | "err" -> set acc.max_error_rate { acc with max_error_rate = Some f }
        | "ops" -> set acc.min_ops_per_sec { acc with min_ops_per_sec = Some f }
        | _ ->
          Error
            (Printf.sprintf "unknown SLO key %S (want p999, err or ops)" key))
    in
    List.fold_left clause (Ok none) (String.split_on_char ',' s)
  end

let to_string t =
  let clause key =
    Option.map (fun f -> key ^ "=" ^ Giantsan_util.Table.shortest_float f)
  in
  let clauses =
    List.filter_map Fun.id
      [
        clause "p999" t.max_p999_ns;
        clause "err" t.max_error_rate;
        clause "ops" t.min_ops_per_sec;
      ]
  in
  if clauses = [] then "none" else String.concat "," clauses

type breach = { b_slo : string; b_value : float; b_limit : float }

let evaluate t ~p999_ns ~error_rate ~ops_per_sec =
  let check name value = function
    | Some limit when name = "ops_per_sec" && value < limit ->
      Some { b_slo = name; b_value = value; b_limit = limit }
    | Some limit when name <> "ops_per_sec" && value > limit ->
      Some { b_slo = name; b_value = value; b_limit = limit }
    | _ -> None
  in
  List.filter_map Fun.id
    [
      check "p999" p999_ns t.max_p999_ns;
      check "error_rate" error_rate t.max_error_rate;
      check "ops_per_sec" ops_per_sec t.min_ops_per_sec;
    ]
