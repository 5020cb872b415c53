(* PartiSan-style run-time partitioning: pick a sanitizer variant per run
   (and per tenant) from a declarative budget spec, and downshift to a
   cheaper variant when a tenant keeps breaching its SLO — degrade
   coverage before degrading service. *)

type spec = {
  budget : float;  (* mean overhead ceiling, 1.0 = native *)
  weights : (Backend.detection_class * int) list;  (* canonical class order *)
  fallback : Backend.id;  (* when nothing fits the budget *)
}

let default_weights = List.map (fun c -> (c, 1)) Backend.all_classes

let default =
  { budget = 2.5; weights = default_weights; fallback = Backend.Native }

let eps = 1e-9

(* Grammar (comma-separated clauses, each at most once):
     budget=1.6
     prefer=oob:3;uaf:2;double-free:1   (unnamed classes weigh 0)
     fallback=native
   e.g. "budget=1.5,prefer=oob:3;uaf:2,fallback=native". *)
let parse s =
  let s = String.trim s in
  if s = "" then Error "empty policy spec"
  else begin
    let ( let* ) = Result.bind in
    let parse_prefer v =
      let item acc part =
        let* acc = acc in
        let part = String.trim part in
        match String.index_opt part ':' with
        | None ->
          Error (Printf.sprintf "prefer item %S is not class:weight" part)
        | Some i ->
          let cls = String.sub part 0 i in
          let w = String.sub part (i + 1) (String.length part - i - 1) in
          let* cls =
            match Backend.class_of_name cls with
            | Some c -> Ok c
            | None ->
              Error
                (Printf.sprintf
                   "unknown detection class %S (want oob, uaf, uaf-realloc \
                    or double-free)"
                   cls)
          in
          let* w =
            match int_of_string_opt (String.trim w) with
            | Some w when w >= 0 -> Ok w
            | _ -> Error (Printf.sprintf "prefer item %S: bad weight" part)
          in
          if List.mem_assoc cls acc then
            Error
              (Printf.sprintf "detection class %S named twice"
                 (Backend.class_name cls))
          else Ok ((cls, w) :: acc)
      in
      let* given =
        List.fold_left item (Ok []) (String.split_on_char ';' v)
      in
      (* unnamed classes weigh 0: prefer is a full re-ranking, not a tweak *)
      Ok
        (List.map
           (fun c ->
             (c, match List.assoc_opt c given with Some w -> w | None -> 0))
           Backend.all_classes)
    in
    let clause acc item =
      let* seen, acc = acc in
      match String.index_opt item '=' with
      | None -> Error (Printf.sprintf "policy clause %S is not key=value" item)
      | Some i ->
        let key = String.trim (String.sub item 0 i) in
        let v = String.trim (String.sub item (i + 1) (String.length item - i - 1)) in
        let* acc =
          match key with
          | _ when List.mem key seen ->
            Error (Printf.sprintf "policy key %S given twice" key)
          | "budget" -> (
            match float_of_string_opt v with
            | Some f when not (Float.is_finite f) ->
              Error (Printf.sprintf "budget %S is not a finite number" v)
            | Some f when f >= 1.0 -> Ok { acc with budget = f }
            | Some _ ->
              Error
                (Printf.sprintf
                   "budget %S is below 1.0 (native costs 1.0 by definition)" v)
            | None -> Error (Printf.sprintf "budget %S: bad number" v))
          | "prefer" ->
            let* weights = parse_prefer v in
            Ok { acc with weights }
          | "fallback" -> (
            match Backend.of_name v with
            | Some b -> Ok { acc with fallback = b }
            | None ->
              Error
                (Printf.sprintf
                   "unknown backend %S (want giantsan, asan, lfp, pac or \
                    native)"
                   v))
          | _ ->
            Error
              (Printf.sprintf
                 "unknown policy key %S (want budget, prefer or fallback)" key)
        in
        Ok (key :: seen, acc)
    in
    Result.map snd
      (List.fold_left clause (Ok ([], default)) (String.split_on_char ',' s))
  end

let to_string t =
  Printf.sprintf "budget=%s,prefer=%s,fallback=%s"
    (Giantsan_util.Table.shortest_float t.budget)
    (String.concat ";"
       (List.map
          (fun (c, w) -> Printf.sprintf "%s:%d" (Backend.class_name c) w)
          t.weights))
    (Backend.name t.fallback)

let score t id =
  List.fold_left (fun a (c, w) -> a + (w * Backend.detection id c)) 0 t.weights

(* Highest score wins; ties break toward the cheaper backend, then toward
   the front of [Backend.all] (a total, deterministic order). *)
let best t = function
  | [] -> None
  | b :: rest ->
    Some
      (List.fold_left
         (fun acc c ->
           let sa = score t acc and sc = score t c in
           if sc > sa then c
           else if sc = sa && Backend.overhead c < Backend.overhead acc -. eps
           then c
           else acc)
         b rest)

let decide t =
  let fits =
    List.filter (fun b -> Backend.overhead b <= t.budget +. eps) Backend.all
  in
  match best t fits with Some b -> b | None -> t.fallback

(* Per-tenant assignment under a mean-overhead budget: greedy in tenant
   order, each choice feasibility-checked against the cheapest possible
   completion of the remaining tenants, so the head of the fleet gets the
   best coverage the budget allows and the tail absorbs the cost. *)
let assign t ~tenants =
  if tenants < 1 then []
  else begin
    let total = t.budget *. float_of_int tenants in
    let min_oh =
      List.fold_left (fun m b -> min m (Backend.overhead b)) infinity
        Backend.all
    in
    let spent = ref 0.0 in
    List.init tenants (fun i ->
        let remaining = float_of_int (tenants - i - 1) in
        let fits =
          List.filter
            (fun b ->
              !spent +. Backend.overhead b +. (remaining *. min_oh)
              <= total +. eps)
            Backend.all
        in
        let b = match best t fits with Some b -> b | None -> t.fallback in
        spent := !spent +. Backend.overhead b;
        b)
  end

let downshift t ~current =
  let cheaper =
    List.filter
      (fun b -> Backend.overhead b < Backend.overhead current -. eps)
      Backend.all
  in
  best t cheaper

(* The ladder's return direction: a tenant that has proven itself over N
   consecutive clean windows climbs back toward the coverage it was
   originally assigned. [ceiling] (that original assignment) bounds the
   climb — the budget arithmetic of [assign] stays valid because no
   tenant ever exceeds what it was billed for. *)
let upshift t ~current ~ceiling =
  let costlier =
    List.filter
      (fun b ->
        Backend.overhead b > Backend.overhead current +. eps
        && Backend.overhead b <= Backend.overhead ceiling +. eps)
      Backend.all
  in
  best t costlier
