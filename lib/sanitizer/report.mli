(** Error reports produced by sanitizer checks (the simulation's equivalent
    of ASan's red crash banner). With [halt_on_error=false] semantics — as
    the paper configures all tools — checks return reports and execution
    continues, so one run can collect many reports. *)

type kind =
  | Heap_buffer_overflow
  | Heap_buffer_underflow
  | Stack_buffer_overflow
  | Stack_buffer_underflow
  | Global_buffer_overflow
  | Use_after_free
  | Invalid_free
  | Double_free
  | Free_not_at_start
  | Null_dereference
  | Wild_access  (** access to memory never returned by the allocator *)

type t = {
  kind : kind;
  addr : int;  (** faulting address *)
  size : int;  (** bytes the failing operation wanted to touch *)
  detected_by : string;  (** sanitizer name *)
}

val make : kind:kind -> addr:int -> size:int -> detected_by:string -> t

val no_anchor : int
(** The anchor of a check that has no base pointer to blame against
    ([min_int], never a real address). Checks carry their anchor as a
    plain int rather than an option, so the check path boxes nothing. *)

val classify_access : Giantsan_memsim.Heap.t -> addr:int -> anchor:int -> kind
(** Best-effort diagnosis of a bad access from allocator ground truth, the
    way ASan decodes its shadow error codes: redzone hits become overflows
    or underflows (relative to [anchor] unless it is {!no_anchor}, else to
    the owning object's base), freed bytes become use-after-free, low
    addresses become null dereferences. *)

val kind_name : kind -> string
val pp : Format.formatter -> t -> unit
val to_string : t -> string
