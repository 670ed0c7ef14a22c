(** Latency histogram with geometric buckets.

    Records durations in nanoseconds into log-spaced buckets: bucket 0
    holds everything under 1 µs, bucket [i >= 1] holds
    [\[1.04^(i-1), 1.04^i)] µs, and the last of the 700 is open-ended
    from about 1.04^698 µs (the buckets span 1.04^700 µs ≈ 9.7 days).
    That gives ~2% relative quantile error at O(1) memory — the standard
    approach for high-volume latency measurement. Exact sum, count, min
    and max are tracked alongside. *)

type t

val create : unit -> t

val record : t -> int -> unit
(** Records one duration in nanoseconds; negative values clamp to zero.
    Allocation-free. *)

val merge : t -> t -> t
(** A histogram holding both inputs' samples. *)

val count : t -> int

val sum_ns : t -> int
(** Sum of the recorded (clamped) nanoseconds. *)

val mean : t -> float
(** Mean in seconds; [nan] when empty. *)

val min_value : t -> float
(** Smallest recorded duration in seconds; [nan] when empty. *)

val max_value : t -> float

val quantile : t -> float -> float
(** [quantile t q] for [q] in [\[0, 1\]], in seconds, with ~2% relative
    error; [nan] when empty. *)

val pp_summary : Format.formatter -> t -> unit
(** "n=…, mean=…, p50=…, p99=…" one-liner. *)

(** {2 Buckets} *)

val num_buckets : int

val bucket_of_ns : int -> int
(** The bucket a non-negative nanosecond value lands in:
    [floor (ln (v / 1000) / ln 1.04) + 1] for [v >= 1000], capped at
    [num_buckets - 1]; [0] below. Computed from integer edges. *)

val bucket_lower : int -> int
(** The least nanosecond value in bucket [i] ([0] for bucket 0). *)

val bucket : t -> int -> int
(** Observations in bucket [i]. *)
