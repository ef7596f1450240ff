(** Mutable state of one spinning drive.

    A drive serialises its requests FCFS (its [busy_until] clock), tracks
    the arm's cylinder, and detects back-to-back sequential access: when a
    request begins exactly where the previous transfer on this drive
    ended, neither seek nor rotational latency is charged (the paper's
    policies lay blocks out "in a rotationally optimal fashion", so a
    contiguous continuation streams at media rate).  Transfers that cross
    cylinder boundaries pay one single-track seek per boundary. *)

type t

type stats = {
  requests : int;
  bytes_moved : int;
  seeks : int;  (** requests that paid a non-zero arm movement or latency *)
  busy_ms : float;  (** total time spent servicing requests *)
  seek_ms : float;  (** arm movement: full seeks plus cylinder crossings *)
  rotation_ms : float;  (** rotational latency plus rotation over skipped gaps *)
  transfer_ms : float;  (** media transfer time *)
}
(** [busy_ms = seek_ms + rotation_ms + transfer_ms + stall time]: the
    decomposition covers request service; {!stall} charges (media-error
    retries) count only in [busy_ms]. *)

val create : Geometry.t -> t

val geometry : t -> Geometry.t

val busy_until : t -> float
(** Time at which the drive next falls idle. *)

val clock : t -> float array
(** The drive's clocks, unboxed, indexed by the slots below.  Callers
    read them; only this module writes them.  Hot callers read results
    here instead of through float returns, which box across modules. *)

val busy_slot : int
(** [busy_until]. *)

val done_slot : int
(** Completion time of the last {!issue}, {!serve} or {!stall}. *)

val start_slot : int
(** Start time of the last {!issue} or {!serve} (its first pass). *)

val head_cylinder : t -> int

val next_sequential : t -> int
(** Byte offset one past the previous transfer; [-1] before any. *)

val issue : t -> now:float -> rng:Rofs_util.Rng.t -> offset:int -> bytes:int -> unit
(** [issue t ~now ~rng ~offset ~bytes] queues a transfer of [bytes]
    bytes at byte [offset] of this drive, starting no earlier than [now];
    its start and completion times land in the {!start_slot} and
    {!done_slot} clocks.  Updates arm position, busy clock and
    statistics.  Requires [bytes >= 0] and the transfer to lie within
    the drive. *)

val access : t -> now:float -> rng:Rofs_util.Rng.t -> offset:int -> bytes:int -> float
(** {!issue}, returning the completion time. *)

val stall : t -> ms:float -> unit
(** Extend the drive's current busy period by [ms] (media-error retries,
    sector-remap relocation); the new [busy_until] also lands in the
    {!done_slot} clock.  Counts as busy time in the statistics; requires
    [ms >= 0]. *)

val serve : t -> now:float -> rng:Rofs_util.Rng.t -> offset:int -> bytes:int -> passes:int -> unit
(** Dispatch-queue variant of {!issue}: perform the transfer [passes]
    times back to back (2 for a read-modify-write), the first starting
    at [max now busy_until]; {!start_slot} holds that start and
    {!done_slot} the last pass's completion.  Raises [Invalid_argument]
    if [passes < 1]. *)

val service_time_ms : t -> rng:Rofs_util.Rng.t -> offset:int -> bytes:int -> float
(** The duration [access] would charge, without performing the request
    (no change to the busy clock or statistics; the latency draw uses
    [rng]). *)

val stats : t -> stats

(** Cheap component accessors (no record allocation); the observability
    layer reads these before/after an access to attribute the delta to
    one request. *)

val seek_ms_total : t -> float
val rotation_ms_total : t -> float
val transfer_ms_total : t -> float

val last_seek_cylinders : t -> int
(** Cylinders the arm moved in the most recent full reposition computed
    by this drive; [0] if the last access was sequential or a short
    forward skip.  Only meaningful immediately after an access. *)

val reset : t -> unit
(** Zero the clock, statistics and sequential-detection state; the arm
    returns to cylinder 0.  Used between the fill phase and the measured
    phase of an experiment. *)

type saved
(** A drive's state in its checkpoint form, whose marshalled bytes keep
    the layout snapshots have always had. *)

val save : ?busy_until:float -> t -> saved
(** [busy_until], when given, is the box to record the busy clock with;
    it must hold the clock's value.  Marshal shares a box written twice,
    so passing the box a caller also snapshots keeps that sharing. *)

val saved_busy_until : saved -> float
(** The recorded busy clock, as the box {!save} was given. *)

val restore : dst:t -> saved -> unit
(** Overwrite [dst]'s arm, clocks and statistics with [saved]'s; [dst]
    keeps its own geometry, which the caller guarantees is the same. *)
