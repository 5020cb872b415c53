(** The closed set of sanitizer backends, with every per-backend fact:
    spec name, overhead factor, detection scores per bug class, metadata
    plane, and the one constructor the rest of the code builds runtimes
    through. The evaluation configurations ([Runner.config]) are a
    backend times an instrumentation mode on top of this table. *)

type id = Giantsan | Asan | Lfp | Pac | Native

val all : id list
(** Every backend, in ascending-overhead order (ties in {!Policy} break
    toward the front of this list). *)

val name : id -> string
(** Lowercase spec name: "giantsan", "asan", "lfp", "pac", "native". *)

val of_name : string -> id option

val overhead : id -> float
(** Run-time overhead factor (1.0 = native), calibrated from the
    published SPEC geomeans each backend models. The policy budget is
    expressed in this unit. *)

type detection_class =
  | Oob  (** spatial: heap/stack/global out-of-bounds *)
  | Uaf  (** temporal: use-after-free while quarantined *)
  | Uaf_realloc
      (** temporal, post-recycling: the freed memory already belongs to a
          new allocation — only the tagged-pointer scheme catches this *)
  | Double_free

val all_classes : detection_class list

val class_name : detection_class -> string
(** Spec name: "oob", "uaf", "uaf-realloc", "double-free". *)

val class_of_name : string -> detection_class option

val detection : id -> detection_class -> int
(** 0 = blind, 1 = partial, 2 = full. The DESIGN.md matrix, scored. *)

(** The backend's metadata plane, exposed so the service tenant can plant
    faults into it and audit it. *)
type plane =
  | Shadow of Giantsan_shadow.Shadow_mem.t  (** GiantSan's folded shadow *)
  | Sigs of Giantsan_pac.Pac.t  (** PAC's signature table *)
  | Plain  (** no injectable metadata plane (ASan/LFP/Native here) *)

val create_exposed :
  ?pac_key:int ->
  ?name:string ->
  id ->
  Giantsan_memsim.Heap.config ->
  Giantsan_sanitizer.Sanitizer.t * plane
(** Build a fresh, fully private runtime for [id] (own heap, own
    metadata), plus its plane. [pac_key] seeds the PA key when [id] is
    {!Pac} (ignored by the other backends, defaults to
    {!Giantsan_pac.Pac.default_key}) — the service plane derives one per
    tenant so a signature table forged under one tenant's key never
    authenticates under another's. [name] overrides the display name in
    reports and traces when [id] is {!Giantsan} or {!Asan} (ASan-- and
    the ablations rename a base runtime); the other backends ignore it. *)

val create :
  ?pac_key:int ->
  ?name:string ->
  id ->
  Giantsan_memsim.Heap.config ->
  Giantsan_sanitizer.Sanitizer.t
