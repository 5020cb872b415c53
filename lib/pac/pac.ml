(* Simulated ARM Pointer Authentication (the PACSan scheme): a 16-bit PAC
   packed into bits 47..62 of the simulated pointer, computed by a keyed
   hash of (address, per-allocation salt). ARM keeps the PAC in bits
   48..63 of a 48-bit VA; an OCaml int has 63 bits, one short, so the
   simulation narrows the address space to 47 bits rather than the tag to
   15 — the tag width is what the architectural false-negative rate
   (2^-16) depends on. The salt table is the analogue
   of PACSan's per-allocation modifier storage; signing on alloc and
   stripping on free is what makes a stale pointer fail authentication
   even after its memory has been recycled for a new allocation — the
   temporal-safety property redzone schemes lose once the quarantine
   rotates.

   The hash is a splitmix64 finalizer over the key, base and salt. Real PA
   uses QARMA; all the simulation needs is a deterministic keyed mix whose
   16-bit truncation makes an unrelated (base, salt) pair collide with
   probability 2^-16, matching the architectural false-negative rate. *)

let pac_shift = 47
let pac_bits = 16
let pac_mask = (1 lsl pac_bits) - 1
let addr_mask = (1 lsl pac_shift) - 1

type entry = { salt : int; pac : int }

(* Fuzz-mode restore point: the table entries are immutable records, so
   the list of bindings detaches the snapshot completely. *)
type snapshot = {
  s_sigs : (int * entry) list;
  s_next_salt : int;
  s_signs : int;
  s_auths : int;
}

type t = {
  key : int;
  sigs : (int, entry) Hashtbl.t;  (* base -> live signature *)
  mutable next_salt : int;
  mutable signs : int;  (* metadata stores: sign on alloc, strip on free *)
  mutable auths : int;  (* metadata loads: salt fetch + recompute *)
  (* the snapshot [sigs] was last captured at or rewound to, and whether
     [sigs] changed since: restoring it to an untouched table is free *)
  mutable armed : snapshot option;
  mutable touched : bool;
}

let default_key = 0x5bd1e995

let create ?(key = default_key) () =
  {
    key;
    sigs = Hashtbl.create 64;
    next_salt = 1;
    signs = 0;
    auths = 0;
    armed = None;
    touched = false;
  }

(* Inlined so [compute]'s intermediate words stay unboxed: an
   authentication allocates nothing. *)
let[@inline] mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let compute t ~base ~salt =
  let open Int64 in
  let h =
    mix64
      (logxor (of_int t.key)
         (mix64 (add (of_int base) (mul 0x9E3779B97F4A7C15L (of_int salt)))))
  in
  to_int (logand h (of_int pac_mask))

let tag_of ptr = (ptr lsr pac_shift) land pac_mask
let strip ptr = ptr land addr_mask
let with_tag ptr tag = (ptr land addr_mask) lor ((tag land pac_mask) lsl pac_shift)

let sign t ~base =
  let salt = t.next_salt in
  t.next_salt <- t.next_salt + 1;
  let pac = compute t ~base ~salt in
  Hashtbl.replace t.sigs base { salt; pac };
  t.touched <- true;
  t.signs <- t.signs + 1;
  with_tag base pac

let retag t ptr ~base =
  match Hashtbl.find_opt t.sigs base with
  | None -> None
  | Some e -> Some (with_tag ptr e.pac)

type failure = Stale | Forged of { expected : int; got : int }

let failure_to_string = function
  | Stale -> "stale pointer: signature stripped (freed or never signed)"
  | Forged { expected; got } ->
    Printf.sprintf "forged tag: expected %#06x, got %#06x" expected got

let authenticate t ptr ~base =
  t.auths <- t.auths + 1;
  match Hashtbl.find_opt t.sigs base with
  | None -> Error Stale
  | Some e ->
    (* recompute rather than trust the stored pac: table corruption (the
       tag-forge chaos plane) must be as visible as a bad pointer tag *)
    let expected = compute t ~base ~salt:e.salt in
    let got = tag_of ptr in
    if got = expected && e.pac = expected then Ok (strip ptr)
    else Error (Forged { expected; got = (if got <> expected then got else e.pac) })

let check t ~base =
  t.auths <- t.auths + 1;
  match Hashtbl.find t.sigs base with
  | exception Not_found -> Some Stale
  | e ->
    let expected = compute t ~base ~salt:e.salt in
    if e.pac = expected then None
    else Some (Forged { expected; got = e.pac })

let release t ~base =
  if Hashtbl.mem t.sigs base then begin
    Hashtbl.remove t.sigs base;
    t.touched <- true;
    t.signs <- t.signs + 1;
    true
  end
  else false

let has t ~base = Hashtbl.mem t.sigs base
let salt_of t ~base = Option.map (fun e -> e.salt) (Hashtbl.find_opt t.sigs base)
let pac_of t ~base = Option.map (fun e -> e.pac) (Hashtbl.find_opt t.sigs base)
let live t = Hashtbl.length t.sigs
let signs t = t.signs
let auths t = t.auths

(* Deterministic view of the table for chaos targeting and audits: bases
   in ascending order (hash-table fold order is not stable). *)
let bases t = List.sort compare (Hashtbl.fold (fun b _ l -> b :: l) t.sigs [])

let forge t ~pick ~mask =
  (* or-in bit 0 so the forged tag always differs from the stored one —
     forging must be detectable, never a silent no-op *)
  let mask = (mask land pac_mask) lor 1 in
  match bases t with
  | [] -> None
  | bs ->
    let base = List.nth bs (abs pick mod List.length bs) in
    let e = Hashtbl.find t.sigs base in
    Hashtbl.replace t.sigs base { e with pac = e.pac lxor mask };
    t.touched <- true;
    Some base

let drop t ~pick =
  match bases t with
  | [] -> None
  | bs ->
    let base = List.nth bs (abs pick mod List.length bs) in
    Hashtbl.remove t.sigs base;
    t.touched <- true;
    Some base

(* Fuzz-mode restore. Re-adding the bindings needs no closure, and an
   untouched table is not rebuilt at all, so a clean restore allocates
   nothing. Rolling back [next_salt] is what makes a restored run re-issue
   the very same salts — and thus the same tags — as a fresh context
   would, keeping persistent-mode verdicts byte-identical to rebuild
   mode. *)
let snapshot t =
  let s =
    {
      s_sigs = Hashtbl.fold (fun b e l -> (b, e) :: l) t.sigs [];
      s_next_salt = t.next_salt;
      s_signs = t.signs;
      s_auths = t.auths;
    }
  in
  t.armed <- Some s;
  t.touched <- false;
  s

let rec add_sigs sigs = function
  | [] -> ()
  | (b, e) :: rest ->
    Hashtbl.add sigs b e;
    add_sigs sigs rest

let refill t s =
  Hashtbl.reset t.sigs;
  add_sigs t.sigs s.s_sigs

let restore t s =
  (match t.armed with
  | Some a when a == s -> if t.touched then refill t s
  | _ ->
    refill t s;
    t.armed <- Some s);
  t.touched <- false;
  t.next_salt <- s.s_next_salt;
  t.signs <- s.s_signs;
  t.auths <- s.s_auths

let audit t =
  List.find_map
    (fun base ->
      let e = Hashtbl.find t.sigs base in
      let expected = compute t ~base ~salt:e.salt in
      if e.pac <> expected then
        Some
          (Printf.sprintf "pac mismatch at base %d: stored %#06x, expect %#06x"
             base e.pac expected)
      else None)
    (bases t)
