type 'a field = {
  f_name : string;
  f_get : 'a -> int;
  f_set : 'a -> int -> unit;
}

let field f_name f_get f_set = { f_name; f_get; f_set }

type 'a spec = 'a field list

let names spec = List.map (fun f -> f.f_name) spec
(* [reset] and [add] recurse instead of building a closure over [t] per
   call: no allocation. *)
let rec reset spec t =
  match spec with
  | [] -> ()
  | f :: rest ->
    f.f_set t 0;
    reset rest t

let rec add spec acc x =
  match spec with
  | [] -> ()
  | f :: rest ->
    f.f_set acc (f.f_get acc + f.f_get x);
    add rest acc x

let to_assoc spec t = List.map (fun f -> (f.f_name, f.f_get t)) spec

let get spec name t =
  match List.find_opt (fun f -> f.f_name = name) spec with
  | Some f -> f.f_get t
  | None -> raise Not_found

let set spec name t v =
  match List.find_opt (fun f -> f.f_name = name) spec with
  | Some f -> f.f_set t v
  | None -> raise Not_found

let sum spec ~names t =
  List.fold_left (fun acc name -> acc + get spec name t) 0 names

let pp spec ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (k, v) -> Format.fprintf ppf "%-16s %d@," k v)
    (to_assoc spec t);
  Format.fprintf ppf "@]"

let to_json spec t =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (to_assoc spec t))
