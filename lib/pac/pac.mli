(** Simulated ARM Pointer Authentication (the PACSan scheme).

    A 16-bit Pointer Authentication Code is packed into bits 47..62 of the
    simulated pointer — the bits the simulated virtual address space
    leaves unused, where ARM PA keeps them (ARM uses 48..63 over a 48-bit
    VA; OCaml's 63-bit int is one bit short, so the simulation narrows the
    address space rather than the tag). The PAC is a keyed hash of
    (allocation base, per-allocation salt):

    - {!sign} on allocation draws a fresh salt, stores it in the signature
      table (PACSan's modifier storage) and returns the tagged pointer;
    - {!authenticate} on dereference recomputes the hash from the live
      table entry and compares it against the pointer's tag;
    - {!release} on free removes the entry, so every pointer signed for
      the dead allocation fails authentication from then on — including
      after the memory is recycled for a new allocation, which gets a
      fresh salt and therefore a different tag. That is the intra-object
      use-after-free detection redzone schemes lose once their quarantine
      rotates.

    Everything is deterministic: salts come from a counter, the hash is a
    splitmix64 finalizer (real PA uses QARMA; the simulation only needs a
    deterministic keyed mix), and the chaos hooks ({!forge}, {!drop})
    target the k-th base in sorted order. [signs]/[auths] count metadata
    stores/loads, the currency the cost model and the service loop's
    latency synthesis trade in. *)

val pac_shift : int
(** Bit position of the PAC field (47). *)

val pac_bits : int
(** Width of the PAC field (16). *)

type t

val default_key : int

val create : ?key:int -> unit -> t
(** A fresh signing context with an empty signature table. [key] is the
    per-process PA key (defaults to {!default_key}; vary it to model
    per-tenant keys). *)

val compute : t -> base:int -> salt:int -> int
(** The raw keyed hash, truncated to {!pac_bits} bits (exposed for tests
    and the audit sweep). *)

val tag_of : int -> int
(** The PAC field of a tagged pointer. *)

val strip : int -> int
(** The address bits of a tagged pointer (what the hardware XPACs). *)

val with_tag : int -> int -> int
(** [with_tag ptr tag] installs [tag] in [ptr]'s PAC field. *)

val sign : t -> base:int -> int
(** Sign a fresh allocation: draw a fresh salt, record the signature, and
    return the tagged base pointer. Counts one metadata store. Raises
    [Invalid_argument] on a negative base (bases are addresses). *)

val retag : t -> int -> base:int -> int option
(** Derive an interior pointer: apply [base]'s live tag to [ptr] (pointer
    arithmetic preserves the tag on real hardware). [None] when [base]
    holds no live signature. *)

type failure =
  | Stale  (** no live signature: freed, or never signed *)
  | Forged of { expected : int; got : int }
      (** a live signature exists but the tags disagree *)

val failure_to_string : failure -> string

val authenticate : t -> int -> base:int -> (int, failure) result
(** Authenticate a tagged pointer against [base]'s live signature:
    [Ok (strip ptr)] when the pointer's tag matches the recomputed PAC;
    [Error Stale] when the signature was stripped (use-after-free);
    [Error (Forged _)] on tag mismatch. The PAC is recomputed from the
    stored salt rather than trusted, so signature-table corruption (the
    tag-forge chaos plane) is caught too. Counts one metadata load. *)

val check : t -> base:int -> failure option
(** Authentication for the untagged adapter path: does [base] hold a
    live, un-forged signature? [None] on success — which allocates
    nothing — else the failure. Counts one metadata load. *)

val release : t -> base:int -> bool
(** Strip on free: remove [base]'s signature (true if one was live).
    Counts one metadata store when a signature was removed. *)

val has : t -> base:int -> bool
val salt_of : t -> base:int -> int option
val pac_of : t -> base:int -> int option

val live : t -> int
(** Number of live signatures. *)

val signs : t -> int
(** Metadata stores so far (sign + strip). *)

val auths : t -> int
(** Metadata loads so far (authenticate/check). *)

val home_slot : t -> int -> int
(** The slot of the current signature table where [base]'s linear-probe
    chain starts: a multiplicative hash of [base lsr 3], in
    [0, capacity) (64 slots until the table first grows). Exposed for the
    table tests, which build colliding and wrapping chains from it. *)

val bases : t -> int list
(** Live bases in ascending order — the deterministic iteration order the
    chaos hooks and {!audit} use. *)

(** {1 Chaos hooks (the [tag-forge] fault plane)} *)

val forge : t -> pick:int -> mask:int -> int option
(** Corrupt the stored PAC of the [pick]-th live base (sorted order) by
    xoring in [mask] (forced odd, so the forged tag always differs).
    Returns the victim base, or [None] when the table is empty. Every
    subsequent {!authenticate}/{!check} of that base fails [Forged]. *)

val drop : t -> pick:int -> int option
(** Remove the [pick]-th live signature without a free — models a stolen
    strip. Subsequent authentications fail [Stale]. *)

(** {1 Snapshot / restore (the fuzz-mode profile)} *)

type snapshot

val snapshot : t -> snapshot
(** Capture the signature table, salt counter and metadata-event counters. *)

val restore : t -> snapshot -> unit
(** Rewind to any snapshot taken from this context. Rolling the salt
    counter back makes a restored run re-issue the same salts — hence the
    same tags — a fresh context would, so persistent-mode verdicts stay
    byte-identical to rebuild mode. The table is rewritten only if it
    changed since the snapshot it was last captured at or rewound to, and
    then in place (cleared, and the snapshot's entries re-inserted), so no
    restore allocates. *)

val audit : t -> string option
(** Recompute every stored PAC from its salt; [Some detail] on the first
    mismatch (ascending base order). Catches {!forge} but not {!drop} —
    a dropped entry is indistinguishable from a legitimate free without
    the owner's live-object view, which is why the service tenant audit
    also sweeps its slot table. *)
