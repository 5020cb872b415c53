(* Simulated ARM Pointer Authentication (the PACSan scheme): a 16-bit PAC
   packed into bits 47..62 of the simulated pointer, computed by a keyed
   hash of (address, per-allocation salt). ARM keeps the PAC in bits
   48..63 of a 48-bit VA; an OCaml int has 63 bits, one short, so the
   simulation narrows the address space to 47 bits rather than the tag to
   15 — the tag width is what the architectural false-negative rate
   (2^-16) depends on. The signature table (base -> salt and PAC, an
   open-addressed int table below) is the analogue of PACSan's
   per-allocation modifier storage; signing on alloc and stripping on
   free is what makes a stale pointer fail authentication even after its
   memory has been recycled for a new allocation — the temporal-safety
   property redzone schemes lose once the quarantine rotates.

   The hash is a splitmix64 finalizer over the key, base and salt. Real PA
   uses QARMA; all the simulation needs is a deterministic keyed mix whose
   16-bit truncation makes an unrelated (base, salt) pair collide with
   probability 2^-16, matching the architectural false-negative rate. *)

let pac_shift = 47
let pac_bits = 16
let pac_mask = (1 lsl pac_bits) - 1
let addr_mask = (1 lsl pac_shift) - 1

(* The signature table: base -> (salt, pac), open-addressed in three
   parallel int arrays. Capacity is a power of two; a base's probe chain
   starts at a multiplicative (Fibonacci) hash of [base lsr 3] (heap
   bases are 8-aligned) and runs by linear probing. Deletion shifts the
   rest of the chain back, so there are no tombstones and a lookup stops at
   the first empty slot. A lookup is a few int loads and compares: no
   [caml_hash] call and no polymorphic compare on the authentication
   path. *)
let empty = -1
let initial_bits = 6

(* Fuzz-mode restore point: copies of the three arrays, so the snapshot is
   detached from the live table. *)
type snapshot = {
  s_keys : int array;
  s_salts : int array;
  s_pacs : int array;
  s_next_salt : int;
  s_signs : int;
  s_auths : int;
}

type t = {
  key : int;
  mutable keys : int array;  (* base, or [empty] *)
  mutable salts : int array;
  mutable pacs : int array;
  mutable shift : int;  (* 63 - log2 capacity: a hash's top bits pick the slot *)
  mutable n_live : int;
  mutable next_salt : int;
  mutable signs : int;  (* metadata stores: sign on alloc, strip on free *)
  mutable auths : int;  (* metadata loads: salt fetch + recompute *)
  (* the snapshot the table was last captured at or rewound to, and whether
     the table changed since: restoring it to an untouched table is free *)
  mutable armed : snapshot option;
  mutable touched : bool;
}

let default_key = 0x5bd1e995

let create ?(key = default_key) () =
  {
    key;
    keys = Array.make (1 lsl initial_bits) empty;
    salts = Array.make (1 lsl initial_bits) 0;
    pacs = Array.make (1 lsl initial_bits) 0;
    shift = 63 - initial_bits;
    n_live = 0;
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

(* The golden-ratio multiplier of Fibonacci hashing, narrowed to an odd
   constant below 2^62 so it is an OCaml int literal. *)
let golden = 0x278DDE6E5FD29F05

let[@inline] home_slot t base = ((base lsr 3) * golden) lsr t.shift

(* The slot holding [base], or -1. The [empty] test comes first, so a
   negative base is never found. *)
let rec probe (keys : int array) mask base i =
  let k = Array.unsafe_get keys i in
  if k = empty then -1
  else if k = base then i
  else probe keys mask base ((i + 1) land mask)

let[@inline] find t base =
  let keys = t.keys in
  probe keys (Array.length keys - 1) base (home_slot t base)

let rec free_slot (keys : int array) mask i =
  if Array.unsafe_get keys i = empty then i
  else free_slot keys mask ((i + 1) land mask)

(* [base] must be absent and the table must have room. *)
let insert t base salt pac =
  let keys = t.keys in
  let i = free_slot keys (Array.length keys - 1) (home_slot t base) in
  keys.(i) <- base;
  t.salts.(i) <- salt;
  t.pacs.(i) <- pac;
  t.n_live <- t.n_live + 1

let reinsert t (keys : int array) (salts : int array) (pacs : int array) =
  for i = 0 to Array.length keys - 1 do
    let b = Array.unsafe_get keys i in
    if b <> empty then
      insert t b (Array.unsafe_get salts i) (Array.unsafe_get pacs i)
  done

(* Doubling keeps the load at most one half. *)
let grow t =
  let keys = t.keys and salts = t.salts and pacs = t.pacs in
  let cap = 2 * Array.length keys in
  t.keys <- Array.make cap empty;
  t.salts <- Array.make cap 0;
  t.pacs <- Array.make cap 0;
  t.shift <- t.shift - 1;
  t.n_live <- 0;
  reinsert t keys salts pacs

(* Backward-shift deletion: walk the chain after the [hole] and move back
   every entry whose home does not lie cyclically in (hole, j], until an
   empty slot ends the chain. *)
let rec shift_back t (keys : int array) mask hole j =
  let j = (j + 1) land mask in
  let k = Array.unsafe_get keys j in
  if k = empty then Array.unsafe_set keys hole empty
  else if (j - home_slot t k) land mask >= (j - hole) land mask then begin
    Array.unsafe_set keys hole k;
    Array.unsafe_set t.salts hole (Array.unsafe_get t.salts j);
    Array.unsafe_set t.pacs hole (Array.unsafe_get t.pacs j);
    shift_back t keys mask j j
  end
  else shift_back t keys mask hole j

let remove_at t i =
  let keys = t.keys in
  shift_back t keys (Array.length keys - 1) i i;
  t.n_live <- t.n_live - 1;
  t.touched <- true

let sign t ~base =
  if base < 0 then invalid_arg "Pac.sign: negative base";
  let salt = t.next_salt in
  t.next_salt <- salt + 1;
  let pac = compute t ~base ~salt in
  let i = find t base in
  if i >= 0 then begin
    t.salts.(i) <- salt;
    t.pacs.(i) <- pac
  end
  else begin
    if 2 * (t.n_live + 1) > Array.length t.keys then grow t;
    insert t base salt pac
  end;
  t.touched <- true;
  t.signs <- t.signs + 1;
  with_tag base pac

let retag t ptr ~base =
  let i = find t base in
  if i < 0 then None else Some (with_tag ptr t.pacs.(i))

type failure = Stale | Forged of { expected : int; got : int }

let failure_to_string = function
  | Stale -> "stale pointer: signature stripped (freed or never signed)"
  | Forged { expected; got } ->
    Printf.sprintf "forged tag: expected %#06x, got %#06x" expected got

let authenticate t ptr ~base =
  t.auths <- t.auths + 1;
  let i = find t base in
  if i < 0 then Error Stale
  else begin
    (* recompute rather than trust the stored pac: table corruption (the
       tag-forge chaos plane) must be as visible as a bad pointer tag *)
    let pac = t.pacs.(i) in
    let expected = compute t ~base ~salt:t.salts.(i) in
    let got = tag_of ptr in
    if got = expected && pac = expected then Ok (strip ptr)
    else Error (Forged { expected; got = (if got <> expected then got else pac) })
  end

let check t ~base =
  t.auths <- t.auths + 1;
  let i = find t base in
  if i < 0 then Some Stale
  else begin
    let pac = Array.unsafe_get t.pacs i in
    let expected = compute t ~base ~salt:(Array.unsafe_get t.salts i) in
    if pac = expected then None else Some (Forged { expected; got = pac })
  end

let release t ~base =
  let i = find t base in
  if i < 0 then false
  else begin
    remove_at t i;
    t.signs <- t.signs + 1;
    true
  end

let has t ~base = find t base >= 0

let salt_of t ~base =
  let i = find t base in
  if i < 0 then None else Some t.salts.(i)

let pac_of t ~base =
  let i = find t base in
  if i < 0 then None else Some t.pacs.(i)

let live t = t.n_live
let signs t = t.signs
let auths t = t.auths

(* Deterministic view of the table for chaos targeting and audits: bases
   in ascending order (slot order depends on the capacity). *)
let bases t =
  let l = ref [] in
  Array.iter (fun b -> if b <> empty then l := b :: !l) t.keys;
  List.sort Int.compare !l

let forge t ~pick ~mask =
  (* or-in bit 0 so the forged tag always differs from the stored one —
     forging must be detectable, never a silent no-op *)
  let mask = (mask land pac_mask) lor 1 in
  match bases t with
  | [] -> None
  | bs ->
    let base = List.nth bs (abs pick mod List.length bs) in
    let i = find t base in
    t.pacs.(i) <- t.pacs.(i) lxor mask;
    t.touched <- true;
    Some base

let drop t ~pick =
  match bases t with
  | [] -> None
  | bs ->
    let base = List.nth bs (abs pick mod List.length bs) in
    remove_at t (find t base);
    Some base

(* Fuzz-mode restore. A snapshot copies the three arrays; a restore clears
   the current arrays (the table never shrinks, so they hold at least the
   snapshot's entries at load one half) and re-inserts the snapshot's
   entries, so it allocates nothing, and an untouched table is not
   rewritten at all. Rolling back [next_salt] is what makes a restored run
   re-issue the very same salts — and thus the same tags — as a fresh
   context would, keeping persistent-mode verdicts byte-identical to
   rebuild mode. *)
let snapshot t =
  let s =
    {
      s_keys = Array.copy t.keys;
      s_salts = Array.copy t.salts;
      s_pacs = Array.copy t.pacs;
      s_next_salt = t.next_salt;
      s_signs = t.signs;
      s_auths = t.auths;
    }
  in
  t.armed <- Some s;
  t.touched <- false;
  s

let refill t s =
  Array.fill t.keys 0 (Array.length t.keys) empty;
  t.n_live <- 0;
  reinsert t s.s_keys s.s_salts s.s_pacs

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
      let i = find t base in
      let pac = t.pacs.(i) in
      let expected = compute t ~base ~salt:t.salts.(i) in
      if pac <> expected then
        Some
          (Printf.sprintf "pac mismatch at base %d: stored %#06x, expect %#06x"
             base pac expected)
      else None)
    (bases t)
