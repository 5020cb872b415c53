module Heap = Giantsan_memsim.Heap
module San = Giantsan_sanitizer.Sanitizer

type id = Giantsan | Asan | Lfp | Pac | Native

(* ascending overhead — the order [Policy] breaks ties and walks the
   downshift ladder in *)
let all = [ Native; Giantsan; Pac; Lfp; Asan ]

let name = function
  | Giantsan -> "giantsan"
  | Asan -> "asan"
  | Lfp -> "lfp"
  | Pac -> "pac"
  | Native -> "native"

let of_name s =
  let s = String.lowercase_ascii (String.trim s) in
  List.find_opt (fun id -> name id = s) all

(* Run-time overhead factors (1.0 = uninstrumented), calibrated from the
   published SPEC geomeans the backends model: GiantSan 1.46x (the paper's
   headline), ASan 2.13x, LFP ~1.62x, PACSan ~1.58x. The policy engine
   only needs the ordering and rough spacing to be right; EXPERIMENTS.md
   records how the repo's own cost-model sweep compares. *)
let overhead = function
  | Native -> 1.0
  | Giantsan -> 1.46
  | Pac -> 1.58
  | Lfp -> 1.62
  | Asan -> 2.13

type detection_class = Oob | Uaf | Uaf_realloc | Double_free

let all_classes = [ Oob; Uaf; Uaf_realloc; Double_free ]

let class_name = function
  | Oob -> "oob"
  | Uaf -> "uaf"
  | Uaf_realloc -> "uaf-realloc"
  | Double_free -> "double-free"

let class_of_name s =
  match String.lowercase_ascii (String.trim s) with
  | "oob" -> Some Oob
  | "uaf" -> Some Uaf
  | "uaf-realloc" -> Some Uaf_realloc
  | "double-free" -> Some Double_free
  | _ -> None

(* 0 = blind, 1 = partial, 2 = full — the scores behind the DESIGN.md
   detection matrix, each justified there with the code path that earns
   it. [Uaf_realloc] is use-after-free where the quarantine has already
   recycled the memory for a new allocation: only the tagged-pointer
   scheme survives that (the stale tag fails authentication no matter who
   owns the bytes now); the shadow-based tools see plausible live shadow
   and LFP sees a plausible live slot. *)
let detection id cls =
  match (id, cls) with
  | Native, _ -> 0
  | Lfp, Oob -> 1 (* size-class rounding hides intra-slot overflows *)
  | Lfp, Uaf -> 1 (* only while the slot is still marked non-live *)
  | Lfp, Uaf_realloc -> 0
  | Lfp, Double_free -> 1
  | Asan, Uaf_realloc -> 0
  | Asan, _ -> 2
  | Giantsan, Uaf_realloc -> 0
  | Giantsan, _ -> 2
  | Pac, _ -> 2

(* The per-backend metadata plane, for fault injection and audits: what a
   chaos fault can corrupt and what the tenant audit can sweep. *)
type plane =
  | Shadow of Giantsan_shadow.Shadow_mem.t
  | Sigs of Giantsan_pac.Pac.t
  | Plain

let create_exposed ?pac_key ?name id heap =
  match id with
  | Giantsan ->
    let san, shadow = Giantsan_core.Gs_runtime.create_exposed ?name heap in
    (san, Shadow shadow)
  | Pac ->
    let san, sigs = Giantsan_pac.Pac_runtime.create_exposed ?key:pac_key heap in
    (san, Sigs sigs)
  | Asan -> (Giantsan_asan.Asan_runtime.create ?name heap, Plain)
  | Lfp -> (Giantsan_lfp.Lfp_runtime.create heap, Plain)
  | Native -> (Giantsan_sanitizer.Native.create heap, Plain)

let create ?pac_key ?name id heap = fst (create_exposed ?pac_key ?name id heap)
