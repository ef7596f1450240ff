(** Running statistics and interval series.

    {!t} is a Welford accumulator for mean / variance / extrema.
    {!Series} accumulates per-interval throughput samples and implements
    the paper's stabilization rule: the simulation is considered stable
    when three consecutive 10-second-interval throughput figures agree to
    within 0.1 (percentage points). *)

type t

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val mean : t -> float
(** Mean of the samples; [0.] when empty. *)

val variance : t -> float
(** Unbiased sample variance; [0.] with fewer than two samples. *)

val stddev : t -> float
val min_value : t -> float option
(** Smallest sample; [None] when empty (so merging empty partitions can
    never poison extrema with [nan]). *)

val max_value : t -> float option
(** Largest sample; [None] when empty. *)

val total : t -> float

val merge : t -> t -> t
(** [merge a b] is a fresh accumulator equivalent to having seen [a]'s
    samples followed by [b]'s, per Chan et al.'s parallel combination of
    Welford states.  Count, sum, minimum and maximum are exact; mean and
    variance agree with a single-pass {!add} stream algebraically but
    only to floating-point re-association (within ~1e-9 relative for
    well-scaled data).  Merging with an empty accumulator is the
    identity.  Neither argument is mutated. *)

module Series : sig
  type nonrec t

  val create : window:int -> tolerance:float -> t
  (** [create ~window ~tolerance] — stable once [window] consecutive
      samples all lie within [tolerance] of each other. *)

  val add : t -> float -> unit
  val last : t -> float option
  val samples : t -> float list
  (** All samples, oldest first. *)

  val is_stable : t -> bool
  (** Whether the last [window] samples span at most [tolerance]. *)
end
