(** A SoftBound-flavoured pointer-based checker, at scenario granularity.

    §2.1's compatibility argument: pointer-based tools attach bounds to
    pointers and propagate them through pointer arithmetic, so when a
    pointer round-trips through an integer cast or an uninstrumented
    library, the tag is lost and everything derived from that pointer is
    unprotected. Location-based tools read their metadata from the address
    itself and do not care.

    The model: each scenario slot carries a [tagged] flag. Allocation tags
    the slot with exact bounds; laundering (pointer -> int -> pointer, see
    {!run_with_laundering}) strips it. Accesses on tagged
    slots are checked against exact bounds (better than any redzone!);
    accesses on laundered slots are unchecked, because the tool has nothing
    to check against. *)

type t

val create : unit -> t

val run : t -> Scenario.t -> bool
(** Execute the scenario under the pointer-based model; [true] when a
    violation is detected. The scenario's own steps cannot launder; use
    {!run_with_laundering} for that. *)

val run_with_laundering : launder_slots:int list -> Scenario.t -> bool
(** Run a fresh instance with the given slots laundered as soon as they are
    allocated: each one's pointer goes through an integer cast or an
    uninstrumented callee, so its tag is gone, and so is every pointer
    derived from it. *)
