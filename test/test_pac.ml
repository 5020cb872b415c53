(* The PAC backend: tag mechanics, the sign/authenticate/strip lifecycle,
   the post-recycling detection the other backends lose, and the tag-forge
   chaos plane. White-box tests drive [Pac] directly (tagged pointers);
   black-box tests drive the untagged [Pac_runtime] adapter through the
   common sanitizer interface. *)

module San = Giantsan_sanitizer.Sanitizer
module Counters = Giantsan_sanitizer.Counters
module Report = Giantsan_sanitizer.Report
module Memsim = Giantsan_memsim
module Pac = Giantsan_pac.Pac
module Pac_runtime = Giantsan_pac.Pac_runtime
module Rng = Giantsan_util.Rng

let fresh ?(config = Helpers.mid_config) () = Pac_runtime.create_exposed config

(* ------------------------------------------------------------------ *)
(* Tag mechanics                                                       *)
(* ------------------------------------------------------------------ *)

let test_tag_bits () =
  let t = Pac.create () in
  let base = 0x1234 in
  let ptr = Pac.sign t ~base in
  Alcotest.(check int) "address bits survive signing" base (Pac.strip ptr);
  Alcotest.(check bool) "tag lives above bit 48" true
    (ptr lsr Pac.pac_shift = Pac.tag_of ptr);
  Alcotest.(check int) "with_tag/tag_of round-trip" (Pac.tag_of ptr)
    (Pac.tag_of (Pac.with_tag base (Pac.tag_of ptr)));
  Alcotest.(check int) "strip removes the tag" base
    (Pac.strip (Pac.with_tag base 0xffff))

let test_compute_is_keyed =
  Helpers.q "different keys, salts or bases give different PACs (mostly)"
    QCheck.(triple (int_bound 1_000_000) (int_bound 10_000) (int_bound 1000))
    (fun (base, salt, key) ->
      let a = Pac.create ~key () and b = Pac.create ~key:(key + 1) () in
      let pa = Pac.compute a ~base ~salt in
      (* 16-bit PACs collide; the property that must hold exactly is
         determinism per (key, base, salt) and range *)
      pa = Pac.compute a ~base ~salt
      && pa land lnot ((1 lsl Pac.pac_bits) - 1) = 0
      && Pac.compute b ~base ~salt
         land lnot ((1 lsl Pac.pac_bits) - 1)
         = 0)

(* ------------------------------------------------------------------ *)
(* Lifecycle: sign / authenticate / strip                              *)
(* ------------------------------------------------------------------ *)

let test_lifecycle () =
  let t = Pac.create () in
  let ptr = Pac.sign t ~base:4096 in
  (match Pac.authenticate t ptr ~base:4096 with
  | Ok a -> Alcotest.(check int) "auth strips" 4096 a
  | Error f -> Alcotest.fail (Pac.failure_to_string f));
  Alcotest.(check bool) "release strips the signature" true
    (Pac.release t ~base:4096);
  (match Pac.authenticate t ptr ~base:4096 with
  | Error Pac.Stale -> ()
  | Ok _ -> Alcotest.fail "stale pointer authenticated"
  | Error f -> Alcotest.fail (Pac.failure_to_string f));
  Alcotest.(check bool) "second release is a no-op" false
    (Pac.release t ~base:4096)

(* Use-after-free where the memory has already been recycled: the freed
   base is re-signed with a fresh salt, so the stale pointer sees a live
   signature with the wrong tag — Forged, not missed. This is exactly the
   detection redzone/quarantine schemes lose once the quarantine rotates
   (Backend.detection Pac Uaf_realloc = 2, everyone else 0). *)
let test_salt_reuse_after_recycle () =
  let t = Pac.create () in
  let stale = Pac.sign t ~base:8192 in
  ignore (Pac.release t ~base:8192);
  let fresh_ptr = Pac.sign t ~base:8192 in
  Alcotest.(check bool) "fresh salt, different tag" true
    (Pac.tag_of stale <> Pac.tag_of fresh_ptr);
  (match Pac.authenticate t stale ~base:8192 with
  | Error (Pac.Forged _) -> ()
  | Ok _ -> Alcotest.fail "stale pointer authenticated against recycled base"
  | Error Pac.Stale -> Alcotest.fail "recycled base should hold a live signature");
  match Pac.authenticate t fresh_ptr ~base:8192 with
  | Ok _ -> ()
  | Error f -> Alcotest.fail (Pac.failure_to_string f)

let test_salts_never_repeat =
  Helpers.q "salts are fresh across sign/release cycles"
    QCheck.(int_range 1 32)
    (fun cycles ->
      let t = Pac.create () in
      let salts = ref [] in
      for _ = 1 to cycles do
        ignore (Pac.sign t ~base:64);
        (match Pac.salt_of t ~base:64 with
        | Some s -> salts := s :: !salts
        | None -> ());
        ignore (Pac.release t ~base:64)
      done;
      List.length (List.sort_uniq compare !salts) = cycles)

(* Interior pointers: arithmetic preserves the tag on real hardware, so
   [retag] must hand out the allocation's live tag for any offset, and the
   result must authenticate. *)
let test_interior_pointer () =
  let t = Pac.create () in
  let ptr = Pac.sign t ~base:4096 in
  (match Pac.retag t (4096 + 40) ~base:4096 with
  | Some interior ->
    Alcotest.(check int) "interior keeps the allocation tag" (Pac.tag_of ptr)
      (Pac.tag_of interior);
    Alcotest.(check int) "interior keeps its address" (4096 + 40)
      (Pac.strip interior);
    (match Pac.authenticate t interior ~base:4096 with
    | Ok a -> Alcotest.(check int) "authenticates at its offset" (4096 + 40) a
    | Error f -> Alcotest.fail (Pac.failure_to_string f))
  | None -> Alcotest.fail "retag refused a live base");
  ignore (Pac.release t ~base:4096);
  Alcotest.(check bool) "retag refuses a dead base" true
    (Pac.retag t (4096 + 40) ~base:4096 = None)

(* Realloc modelled as the allocator does it: new allocation, then free of
   the old one. The old pointer's tag must die with the old allocation and
   the new pointer's tag must keep working. *)
let test_tag_across_realloc () =
  let san, pac = fresh () in
  let old_obj = san.San.malloc 64 in
  let old_base = old_obj.Memsim.Memobj.base in
  let old_ptr = Pac.sign pac ~base:old_base in
  ignore (Pac.release pac ~base:old_base);
  (* grow: fresh allocation gets its own signature *)
  let new_obj = san.San.malloc 128 in
  let new_base = new_obj.Memsim.Memobj.base in
  ignore (san.San.free old_base);
  Alcotest.(check bool) "old tag is dead" true
    (match Pac.authenticate pac old_ptr ~base:old_base with
    | Error _ -> true
    | Ok _ -> false);
  Alcotest.(check bool) "new base stays signed" true (Pac.has pac ~base:new_base);
  Alcotest.(check bool) "new object accessible" true
    (Helpers.check_is_safe
       (san.San.access ~base:new_base ~addr:(new_base + 8) ~width:8))

(* ------------------------------------------------------------------ *)
(* The untagged adapter through the common interface                   *)
(* ------------------------------------------------------------------ *)

let test_adapter_inbounds_and_oob () =
  let san, _ = fresh () in
  let obj = san.San.malloc 100 in
  let base = obj.Memsim.Memobj.base in
  Alcotest.(check bool) "inside" true
    (Helpers.check_is_safe (san.San.access ~base ~addr:(base + 50) ~width:4));
  match san.San.access ~base ~addr:(base + 100) ~width:1 with
  | Some r ->
    Alcotest.(check string) "one past the end" "heap-buffer-overflow"
      (Report.kind_name r.Report.kind)
  | None -> Alcotest.fail "overflow missed"

(* PAC enforces the exact signed size — the size-class slack LFP tolerates
   (char p[600] rounded to 640, p[610] missed) is out of bounds here. *)
let test_adapter_no_size_class_slack () =
  let san, _ = fresh () in
  let obj = san.San.malloc 600 in
  let base = obj.Memsim.Memobj.base in
  Alcotest.(check bool) "p[610] caught (LFP misses it)" false
    (Helpers.check_is_safe (san.San.access ~base ~addr:(base + 610) ~width:1))

let test_adapter_uaf_and_double_free () =
  let san, _ = fresh () in
  let obj = san.San.malloc 64 in
  let base = obj.Memsim.Memobj.base in
  ignore (san.San.free base);
  (match san.San.access ~base ~addr:(base + 8) ~width:4 with
  | Some r ->
    Alcotest.(check string) "stale access" "heap-use-after-free"
      (Report.kind_name r.Report.kind)
  | None -> Alcotest.fail "use-after-free missed");
  match san.San.free base with
  | Some r ->
    Alcotest.(check string) "second free" "double-free"
      (Report.kind_name r.Report.kind)
  | None -> Alcotest.fail "double free missed"

let test_adapter_region_checks () =
  let san, _ = fresh () in
  let obj = san.San.malloc 256 in
  let base = obj.Memsim.Memobj.base in
  Alcotest.(check bool) "whole object" true
    (Helpers.check_is_safe (san.San.check_region ~lo:base ~hi:(base + 256)));
  Alcotest.(check bool) "one past" false
    (Helpers.check_is_safe (san.San.check_region ~lo:base ~hi:(base + 257)));
  Alcotest.(check bool) "empty region is trivially safe" true
    (Helpers.check_is_safe (san.San.check_region ~lo:base ~hi:base))

let test_adapter_counters () =
  let san, pac = fresh () in
  let obj = san.San.malloc 64 in
  let base = obj.Memsim.Memobj.base in
  ignore (san.San.access ~base ~addr:base ~width:8);
  ignore (san.San.check_region ~lo:base ~hi:(base + 64));
  let c = san.San.counters in
  Alcotest.(check int) "every check is one authentication" 2
    c.Counters.auth_checks;
  Alcotest.(check int) "auth_checks joins total_checks" 2
    (Counters.total_checks c);
  Alcotest.(check int) "shadow loads = authentications" (Pac.auths pac)
    (san.San.shadow_loads ());
  Alcotest.(check int) "shadow stores = signature writes" (Pac.signs pac)
    (san.San.shadow_stores ())

(* ------------------------------------------------------------------ *)
(* Chaos plane: tag forging is always detected                         *)
(* ------------------------------------------------------------------ *)

(* [forge] xors an odd mask into a stored PAC, so authentication of the
   victim can never accidentally still pass — a forged tag must always be
   detected, across any seed. *)
let test_forged_tags_always_detected =
  Helpers.q "seeded tag-forge sweep: every forge detected"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Rng.create (seed + 1) in
      let san, pac = fresh ~config:Helpers.small_config () in
      let bases =
        List.init (1 + Rng.int rng 6) (fun _ ->
            (san.San.malloc (16 + Rng.int rng 64)).Memsim.Memobj.base)
      in
      match Pac.forge pac ~pick:(Rng.int rng 64) ~mask:(Rng.int rng 0xffff) with
      | None -> false (* live signatures exist; forge must land *)
      | Some victim ->
        List.for_all
          (fun base ->
            let safe =
              Helpers.check_is_safe (san.San.access ~base ~addr:base ~width:8)
            in
            if base = victim then (not safe) && Pac.audit pac <> None
            else safe)
          bases)

let test_forged_report_is_wild_access () =
  let san, pac = fresh () in
  let obj = san.San.malloc 64 in
  let base = obj.Memsim.Memobj.base in
  ignore (Pac.forge pac ~pick:0 ~mask:0b1010);
  match san.San.access ~base ~addr:base ~width:8 with
  | Some r ->
    Alcotest.(check string) "forged tag reports wild access" "wild-access"
      (Report.kind_name r.Report.kind)
  | None -> Alcotest.fail "forged tag authenticated"

let test_drop_is_stale_not_forged () =
  let san, pac = fresh () in
  let obj = san.San.malloc 64 in
  let base = obj.Memsim.Memobj.base in
  (match Pac.drop pac ~pick:0 with
  | Some victim -> Alcotest.(check int) "drop hits the only base" base victim
  | None -> Alcotest.fail "drop found nothing");
  Alcotest.(check bool) "audit alone cannot see a drop" true
    (Pac.audit pac = None);
  match Pac.check pac ~base with
  | Some Pac.Stale -> ()
  | None -> Alcotest.fail "dropped signature still authenticated"
  | Some (Pac.Forged _) -> Alcotest.fail "drop misclassified as forge"

(* ------------------------------------------------------------------ *)
(* The signature table against an association-list model              *)
(* ------------------------------------------------------------------ *)

(* The first [n] 8-aligned bases whose probe chain starts at slot [home]
   of a fresh (64-slot) table. *)
let bases_at_home ~home n =
  let t = Pac.create () in
  let rec go b acc n =
    if n = 0 then List.rev acc
    else if Pac.home_slot t b = home then go (b + 8) (b :: acc) (n - 1)
    else go (b + 8) acc n
  in
  go 65536 [] n

(* Bases the sequences draw from: eight that share [base lsr 3] (so one
   home slot and one probe chain at any capacity), chains at slots 62, 63
   and 0 of the first table (one that wraps around its end), and enough
   spread bases that the live count passes the 32 a 64-slot table holds. *)
let table_pool =
  Array.of_list
    (List.init 8 (fun i -> 4096 + i)
    @ bases_at_home ~home:63 6
    @ bases_at_home ~home:62 4
    @ bases_at_home ~home:0 4
    @ List.init 40 (fun i -> 8192 + (24 * i)))

let never_signed = [ 0; 8; 4104; 1 lsl 40 ]

type model = {
  m_sigs : (int * (int * int)) list;  (* base -> (salt, stored pac) *)
  m_next_salt : int;
  m_signs : int;
  m_auths : int;
}

let model0 = { m_sigs = []; m_next_salt = 1; m_signs = 0; m_auths = 0 }
let model_bases m = List.sort Int.compare (List.map fst m.m_sigs)

(* Every query of [t] against [m], for every pool base and a few never
   signed: the failure names the first disagreement. The queries'
   metadata loads (two per absent base, three per live one) advance the
   returned model's [m_auths]. *)
let agree t m =
  let fail fmt = Alcotest.failf fmt in
  if Pac.live t <> List.length m.m_sigs then
    fail "live %d, model %d" (Pac.live t) (List.length m.m_sigs);
  if Pac.bases t <> model_bases m then fail "bases differ from the model";
  if Pac.signs t <> m.m_signs then fail "signs %d, model %d" (Pac.signs t) m.m_signs;
  if Pac.auths t <> m.m_auths then fail "auths %d, model %d" (Pac.auths t) m.m_auths;
  let loads = ref 0 in
  List.iter
    (fun base ->
      let entry = List.assoc_opt base m.m_sigs in
      if Pac.has t ~base <> (entry <> None) then fail "has %d" base;
      if Pac.salt_of t ~base <> Option.map fst entry then fail "salt_of %d" base;
      if Pac.pac_of t ~base <> Option.map snd entry then fail "pac_of %d" base;
      match entry with
      | None ->
        loads := !loads + 2;
        if Pac.check t ~base <> Some Pac.Stale then fail "check %d: not stale" base;
        if Pac.authenticate t (Pac.with_tag base 0) ~base <> Error Pac.Stale then
          fail "authenticate %d: not stale" base;
        if Pac.retag t base ~base <> None then fail "retag %d" base
      | Some (salt, pac) ->
        loads := !loads + 3;
        let expected = Pac.compute t ~base ~salt in
        let forged got = Pac.Forged { expected; got } in
        let want_check = if pac = expected then None else Some (forged pac) in
        if Pac.check t ~base <> want_check then fail "check %d" base;
        let good = Pac.with_tag (base + 8) expected in
        let want_good = if pac = expected then Ok (base + 8) else Error (forged pac) in
        if Pac.authenticate t good ~base <> want_good then
          fail "authenticate %d, right tag" base;
        let bad = expected lxor 1 in
        if Pac.authenticate t (Pac.with_tag base bad) ~base <> Error (forged bad) then
          fail "authenticate %d, wrong tag" base)
    (never_signed @ Array.to_list table_pool);
  let want_audit =
    List.find_map
      (fun base ->
        let salt, pac = List.assoc base m.m_sigs in
        let expected = Pac.compute t ~base ~salt in
        if pac <> expected then
          Some
            (Printf.sprintf "pac mismatch at base %d: stored %#06x, expect %#06x"
               base pac expected)
        else None)
      (model_bases m)
  in
  if Pac.audit t <> want_audit then fail "audit differs from the model";
  { m with m_auths = m.m_auths + !loads }

let nth_base m pick =
  let bs = model_bases m in
  List.nth bs (abs pick mod List.length bs)

(* One seeded step on both; [snaps] is every (snapshot, model) taken. *)
let table_step rng t m snaps =
  let base () = Rng.pick rng table_pool in
  match Rng.int rng 12 with
  | 0 | 1 | 2 | 3 | 4 ->
    let base = base () in
    let salt = m.m_next_salt in
    let pac = Pac.compute t ~base ~salt in
    if Pac.sign t ~base <> Pac.with_tag base pac then
      Alcotest.failf "sign %d: wrong tagged pointer" base;
    ( {
        m with
        m_sigs = (base, (salt, pac)) :: List.remove_assoc base m.m_sigs;
        m_next_salt = salt + 1;
        m_signs = m.m_signs + 1;
      },
      snaps )
  | 5 | 6 | 7 ->
    let base = if Rng.int rng 8 = 0 then List.hd never_signed else base () in
    let was = List.mem_assoc base m.m_sigs in
    if Pac.release t ~base <> was then Alcotest.failf "release %d" base;
    if was then
      ( {
          m with
          m_sigs = List.remove_assoc base m.m_sigs;
          m_signs = m.m_signs + 1;
        },
        snaps )
    else (m, snaps)
  | 8 ->
    let pick = Rng.int rng 1000 and mask = Rng.int rng 0x10000 in
    let victim = Pac.forge t ~pick ~mask in
    if m.m_sigs = [] then begin
      if victim <> None then Alcotest.fail "forge on an empty table";
      (m, snaps)
    end
    else begin
      let base = nth_base m pick in
      if victim <> Some base then Alcotest.failf "forge hit the wrong base";
      let salt, pac = List.assoc base m.m_sigs in
      let pac = pac lxor ((mask land 0xffff) lor 1) in
      ( { m with m_sigs = (base, (salt, pac)) :: List.remove_assoc base m.m_sigs },
        snaps )
    end
  | 9 ->
    let pick = Rng.int rng 1000 in
    let victim = Pac.drop t ~pick in
    if m.m_sigs = [] then begin
      if victim <> None then Alcotest.fail "drop on an empty table";
      (m, snaps)
    end
    else begin
      let base = nth_base m pick in
      if victim <> Some base then Alcotest.failf "drop hit the wrong base";
      ({ m with m_sigs = List.remove_assoc base m.m_sigs }, snaps)
    end
  | 10 -> (m, (Pac.snapshot t, m) :: snaps)
  | _ -> (
    match snaps with
    | [] -> (m, snaps)
    | _ ->
      let s, sm = List.nth snaps (Rng.int rng (List.length snaps)) in
      Pac.restore t s;
      (sm, snaps))

let test_table_matches_model =
  Helpers.q "signature table = association-list model (seeded sequences)"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create (seed + 1) in
      let t = Pac.create () in
      let m = ref (agree t model0) and snaps = ref [] in
      for _ = 1 to 150 do
        let m', snaps' = table_step rng t !m !snaps in
        m := agree t m';
        snaps := snaps'
      done;
      true)

(* The cases the seeded sequences are built to reach, each made certain:
   a deletion in the middle of a chain that wraps past the last slot, one
   base-lsr-3 chain, and growth past the first 64 slots with a restore to
   a snapshot of the small table. *)
let test_table_chains () =
  let t = Pac.create () in
  let m = ref model0 in
  let sign base =
    let salt = !m.m_next_salt in
    ignore (Pac.sign t ~base);
    m :=
      {
        !m with
        m_sigs = (base, (salt, Pac.compute t ~base ~salt)) :: !m.m_sigs;
        m_next_salt = salt + 1;
        m_signs = !m.m_signs + 1;
      }
  in
  let release base =
    Alcotest.(check bool) "release finds it" true (Pac.release t ~base);
    m :=
      { !m with m_sigs = List.remove_assoc base !m.m_sigs; m_signs = !m.m_signs + 1 }
  in
  (* slots 62 .. 63, 0 .. 2: three bases from slot 63 and one from slot 0
     fill the chain that wraps; freeing slot 63 shifts the entries at 0
     and 1 back across the end, and the one at 2 back to its home *)
  let at62 = bases_at_home ~home:62 1
  and at63 = bases_at_home ~home:63 3
  and at0 = bases_at_home ~home:0 1 in
  List.iter sign (at62 @ at63 @ at0);
  m := agree t !m;
  release (List.hd at63);
  m := agree t !m;
  release (List.hd at62);
  m := agree t !m;
  let s = Pac.snapshot t and at_snapshot = !m in
  List.iter sign (List.init 8 (fun i -> 4096 + i));
  m := agree t !m;
  release 4099;
  m := agree t !m;
  List.iter sign (List.init 40 (fun i -> 8192 + (24 * i)));
  Alcotest.(check bool) "the table grew past 64 slots" true
    (List.exists (fun b -> Pac.home_slot t b >= 64) (Pac.bases t));
  m := agree t !m;
  Pac.restore t s;
  ignore (agree t at_snapshot)

let suite =
  ( "pac",
    [
      Helpers.qt "tag bits: pack/strip/with_tag round-trip" `Quick test_tag_bits;
      test_compute_is_keyed;
      Helpers.qt "sign/authenticate/strip lifecycle" `Quick test_lifecycle;
      Helpers.qt "salt reuse: recycled base rejects the stale tag" `Quick
        test_salt_reuse_after_recycle;
      test_salts_never_repeat;
      Helpers.qt "interior pointers authenticate via retag" `Quick
        test_interior_pointer;
      Helpers.qt "realloc: old tag dies, new tag lives" `Quick
        test_tag_across_realloc;
      Helpers.qt "adapter: in-bounds pass, overflow reported" `Quick
        test_adapter_inbounds_and_oob;
      Helpers.qt "adapter: exact bounds, no size-class slack" `Quick
        test_adapter_no_size_class_slack;
      Helpers.qt "adapter: use-after-free and double-free" `Quick
        test_adapter_uaf_and_double_free;
      Helpers.qt "adapter: region checks cost one authentication" `Quick
        test_adapter_region_checks;
      Helpers.qt "adapter: auth_checks and signature traffic" `Quick
        test_adapter_counters;
      test_forged_tags_always_detected;
      Helpers.qt "forged tag reports wild-access" `Quick
        test_forged_report_is_wild_access;
      Helpers.qt "stolen strip: stale, invisible to audit alone" `Quick
        test_drop_is_stale_not_forged;
      test_table_matches_model;
      Helpers.qt "signature table: wrapping chain, one home, growth, restore"
        `Quick test_table_chains;
    ] )
