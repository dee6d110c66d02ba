(** Summary statistics for benchmark series (virtual-time measurements). *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
  p95 : float;
}

(** [summarize xs] computes the summary of a non-empty list of samples.
    @raise Invalid_argument on the empty list. *)
val summarize : float list -> summary

val mean : float list -> float
val stddev : float list -> float

(** [percentile p xs] for [p] in [0,100], by linear interpolation on the
    sorted samples. *)
val percentile : float -> float list -> float

(** Fixed-bucket latency/size histogram for the metrics registry: constant
    memory, O(log buckets) insertion, mergeable across nodes. Percentiles
    are bucket-resolution estimates (upper bound of the covering bucket,
    clamped to the observed min/max). *)
module Histogram : sig
  type t

  (** 1-2-5 series from 1 to 1e7 — covers both µs latencies and byte
      counts. *)
  val default_bounds : float array

  (** [create ?bounds ()] — [bounds] are the strictly increasing bucket
      upper limits; one overflow bucket is added past the last.
      @raise Invalid_argument on empty or unsorted bounds. *)
  val create : ?bounds:float array -> unit -> t

  val add : t -> float -> unit
  val count : t -> int
  val sum : t -> float
  val mean : t -> float

  (** Observed extrema; [0.] on the empty histogram (never the internal
      ±infinity sentinels). *)
  val min_value : t -> float

  val max_value : t -> float

  (** Including the overflow bucket. *)
  val num_buckets : t -> int

  val bucket_count : t -> int -> int

  (** Upper bound of bucket [i]; the overflow bucket reports the observed
      maximum. *)
  val bucket_upper : t -> int -> float

  (** [merge a b] is a fresh histogram with the summed counts.
      @raise Invalid_argument if the bucket bounds differ. *)
  val merge : t -> t -> t

  (** [percentile t p] for [p] in [0,100]; [None] on the empty histogram. *)
  val percentile : t -> float -> float option

  val pp : Format.formatter -> t -> unit
end

(** Online accumulator (Welford) for long-running experiment counters. *)
module Acc : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val n : t -> int
  val mean : t -> float
  val stddev : t -> float
  val min : t -> float
  val max : t -> float
  val total : t -> float
end
