(** Log2-bucketed histograms of non-negative integer observations.

    Bucket 0 holds values [<= 0]; bucket [i >= 1] holds values [v] with
    [floor (log2 v) = i - 1], i.e. the half-open range [2^(i-1), 2^i).
    Exact powers of two therefore open a fresh bucket, matching the
    folding-degree intuition: degree [d] allocations land in bucket
    [d + 1].

    [merge] is a commutative monoid with [create name] as the identity
    (for equal names), so per-run histograms can be folded into a
    campaign-wide one in any order — the qcheck suite holds this to the
    associativity/commutativity/identity laws. *)

type t

val n_buckets : int
val bucket_of_value : int -> int

val bucket_lo : int -> int
(** Smallest value the bucket holds (0 for bucket 0, [2^(i-1)] else). *)

val create : string -> t
(** An empty histogram. The name tags exports and guards [merge]. *)

val name : t -> string
val observe : t -> int -> unit
val count : t -> int
(** Total observations. *)

val sum : t -> int
(** Sum of all observed values. *)

val max_value : t -> int
(** Largest observed value; 0 when empty. *)

val buckets : t -> int array
(** A copy of the per-bucket counts. *)

val reset : t -> unit

val merge : t -> t -> t
(** Pure pairwise sum. Raises [Invalid_argument] on a name mismatch. *)

val equal : t -> t -> bool

val bucket_hi : int -> int
(** Exclusive upper bound of the bucket's value range (1 for bucket 0,
    [2^i] else) — [bucket_lo i, bucket_hi i) is the half-open range. *)

val quantile : t -> float -> float
(** [quantile t q] for [q] in [0, 1]: locate the bucket holding the order
    statistic at fractional rank [q * (count - 1)] and interpolate
    linearly within its [[bucket_lo, bucket_hi)] range, capped at
    [max_value] (so [quantile t 1.0 = max_value]). 0.0 when empty. The
    qcheck suite checks it against a sorted-array oracle: the readout
    always lands in the same log2 bucket as the true order statistic. *)

val to_assoc : t -> (string * int) list
(** Only non-empty buckets, as [("2^k", count)] pairs with ["0"] for the
    zero bucket; stable order, suitable for golden assertions. *)

val to_json : t -> Json.t
val pp : Format.formatter -> t -> unit

(** The per-sanitizer histogram set the runtimes populate whenever the
    telemetry switch is on. *)
type set = {
  h_loads_per_check : t;  (** shadow loads consumed by one region check *)
  h_fold_degree : t;  (** max folding degree written at poison time *)
  h_access_width : t;  (** byte width of each checked access *)
  h_quarantine_residency : t;
      (** free operations a block survived in quarantine before eviction *)
}

val create_set : unit -> set
val merge_set : set -> set -> set
val set_to_json : set -> Json.t
