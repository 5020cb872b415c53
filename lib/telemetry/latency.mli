(** HDR-style latency histogram: log2 octaves subdivided into 32 linear
    sub-buckets, so any recorded value is represented with at most ~3%
    relative error while the whole 63-bit range fits in a fixed 1888-slot
    array — no allocation per observation, O(buckets) quantile readout.

    Values below 64 ns are recorded {e exactly} (unit-width buckets);
    octave [2^k, 2^(k+1)) for [k >= 6] is split into 32 buckets of width
    [2^(k-5)].

    [merge] is a commutative monoid with [create name] as identity (for
    equal names) — per-tenant histograms fold into the global one in any
    order, which is what keeps the service summary byte-identical across
    [--jobs] values. [quantile] interpolates linearly within the target
    bucket and clamps to the observed [min]/[max], so [quantile t 0.0] and
    [quantile t 1.0] are exact. *)

type t

val n_buckets : int

val bucket_of_value : int -> int
(** Bucket index for a value (negative values clamp to 0). *)

val bucket_bounds : int -> int * int
(** [(lo, hi)] half-open value range of a bucket index. *)

val create : string -> t
val name : t -> string
val observe : t -> int -> unit
val count : t -> int
val sum : t -> int
val max_value : t -> int
val mean : t -> float
val reset : t -> unit

val merge : t -> t -> t
(** Pure pairwise sum; raises [Invalid_argument] on a name mismatch. *)

val merge_as : string -> t -> t -> t
(** [merge] with the name check waived and the result renamed — how the
    per-tenant histograms ("tenant-0", "tenant-1", ...) fold into the
    service's single "global" readout. *)

val equal : t -> t -> bool

val quantile : t -> float -> float
(** [quantile t q] for [q] in [0, 1]: the linearly-interpolated value at
    fractional rank [q * (count - 1)] (the numpy-linear convention),
    clamped to the smallest observed value and {!max_value}. 0.0 on an empty histogram. The
    qcheck suite holds it to the sorted-array oracle at bucket
    granularity. *)

val p50 : t -> float
val p99 : t -> float
val p999 : t -> float

val to_json : t -> Json.t
(** name/count/sum/min/max/mean plus the p50/p90/p99/p999 readouts. *)

val pp : Format.formatter -> t -> unit
