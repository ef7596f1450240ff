(** A logical disk built from several drives.

    Section 2.1: the disk system may be configured as a plain striped
    array (the configuration used for all of the paper's results), a set
    of mirrored disks, a RAID (rotating block parity), or Gray's parity
    striping where files live on single disks but parity is spread.

    The array exposes a flat byte address space of its {e data} capacity;
    {!serve_runs} maps an operation on logical runs to requests on
    individual drives and leaves its service window in {!window} (drives
    work in parallel; each drive serialises its own queue). *)

type config =
  | Striped of { stripe_unit : int }
      (** RAID-0: [stripe_unit] bytes per disk, round-robin. *)
  | Mirrored of { stripe_unit : int }
      (** Adjacent drive pairs hold identical data; data is striped
          across the pairs.  Reads pick the less busy arm, writes pay
          both. *)
  | Raid5 of { stripe_unit : int }
      (** N-1 data units plus one parity unit per stripe row, parity
          rotating across drives.  Writes pay a read-modify-write on the
          data drive and on the parity drive. *)
  | Parity_striped
      (** Gray's parity striping: drives are concatenated (no striping),
          so a file's blocks live on one drive; writes also update a
          parity region on a rotating partner drive. *)

type kind = Read | Write

type t

val create :
  ?geometry:Geometry.t ->
  ?seed:int ->
  ?scheduler:Rofs_sched.Policy.t ->
  ?faults:Rofs_fault.Plan.config ->
  disks:int ->
  config ->
  t
(** [create ~disks config] builds an array of [disks] identical drives
    (default {!Geometry.cdc_wren_iv}).  [seed] (default 0) drives the
    rotational-latency draws.  [scheduler] (default [Fcfs]) selects the
    per-drive dispatch policy used by the queued path ({!submit} /
    {!complete}); the synchronous {!service} path is FCFS by
    construction.  [faults] (default {!Rofs_fault.Plan.none}) configures
    the media-error model and rebuild pacing; with the default, the
    array behaves byte-identically to one without a fault subsystem. *)

val create_mixed :
  ?seed:int ->
  ?scheduler:Rofs_sched.Policy.t ->
  ?faults:Rofs_fault.Plan.config ->
  geometries:Geometry.t list ->
  config ->
  t
(** Heterogeneous array (Section 2.1 allows "multiple heterogeneous
    devices").  Addressing is uniform, so each drive contributes the
    capacity of the {e smallest} drive; each services its requests with
    its own seek/rotation parameters, so slow drives straggle striped
    transfers.  Requires at least one geometry. *)

val config : t -> config
val disks : t -> int
val geometry : t -> Geometry.t

val scheduler : t -> Rofs_sched.Policy.t
(** Dispatch policy of the queued path. *)

val capacity_bytes : t -> int
(** Usable data capacity (excludes mirrors and parity). *)

val max_bandwidth_bytes_per_ms : t -> float
(** Sustained sequential {e data} bandwidth of the whole array — the
    denominator for the paper's "percent of maximum throughput" metric.
    For the default 8-drive striped Wren IV array this is the paper's
    10.8 M/s. *)

type service = { began : float; finished : float }
(** [began] is when the operation's first byte starts moving (after any
    queueing behind earlier operations); [finished] when its last drive
    completes. *)

val serve_runs : t -> now:float -> kind:kind -> Rofs_util.Runs.t -> unit
(** Perform one logical operation touching the given [(offset, bytes)]
    data runs (in order).  Chunks destined to distinct drives proceed
    in parallel; chunks on one drive are serialised in run order.  The
    operation's service window lands in {!window}.  Allocates nothing:
    the engine's synchronous hot path uses this. *)

val window : t -> float array
(** Service window of the last synchronous operation, unboxed: [.(0)]
    when its first byte started moving (after any queueing behind
    earlier operations), [.(1)] when its last drive completed.
    Read-only for callers. *)

val service : t -> now:float -> kind:kind -> extents:(int * int) list -> service
(** {!serve_runs} on a list of [(offset, bytes)] extents, returning the
    window as a record. *)

val access : t -> now:float -> kind:kind -> extents:(int * int) list -> float
(** [access t ~now ~kind ~extents] is [(service t ...).finished]. *)

val time_of : t -> kind:kind -> extents:(int * int) list -> float
(** Duration [access] would take on an otherwise idle, just-reset,
    {e fault-free} array; convenience for unit tests and analytic
    checks (no state change). *)

(** {1 Dispatch-queue path}

    The alternative to {!service} for engines that model per-drive
    queueing for real: {!submit} splits an operation into per-drive
    chunk requests and leaves them on each drive's dispatch queue; the
    scheduler policy picks which pending request an idle arm serves
    next, so a later-arriving request can be reordered ahead of queued
    ones (SSTF / SCAN / C-LOOK).  The caller owns the clock: it receives
    one {!dispatched} record per request an idle drive starts, must call
    {!complete} when that request's [d_finished] time arrives, and gets
    back the next dispatch (if any) to schedule.  Do not mix {!service}
    and {!submit} on one array: both move the same arms. *)

type op
(** Handle on one submitted logical operation. *)

val op_id : op -> int
(** Unique, monotonically increasing per array. *)

val op_done : op -> bool
(** All chunk requests of the operation have completed. *)

val op_service : op -> service
(** Service window of a completed (or empty) operation: first dispatch
    start to last chunk completion.  An operation with no chunks
    began and finished at its submission time. *)

val op_submitted : op -> float
(** Time the operation entered the dispatch queues. *)

val op_bytes : op -> int
(** Data (non-redundancy) bytes the operation moves. *)

val op_breakdown : op -> (float * float * float * float) option
(** [(seek, rotation, transfer, fault_penalty)] service-time totals of
    the operation's chunks, in ms.  [None] unless a sink was attached
    when the operation was submitted. *)

type dispatched = {
  d_drive : int;
  d_op_id : int;
  d_started : float;
  d_finished : float;  (** when to call {!complete} on [d_drive] *)
  d_bytes : int;
  d_parity : bool;  (** redundancy traffic: excluded from data-byte accounting *)
}
(** One chunk request an idle drive just started servicing. *)

type completion = {
  c_op : op;  (** the operation the retired request belonged to *)
  c_op_done : bool;  (** that operation just completed entirely *)
}

val submit : t -> now:float -> kind:kind -> extents:(int * int) list -> op * dispatched list
(** Enqueue one logical operation's chunks on their drives' dispatch
    queues and start every idle drive that received work.  Returns the
    operation handle and the newly started requests (at most one per
    drive). *)

val complete : t -> drive:int -> completion * dispatched option
(** Retire [drive]'s in-service request — the caller invokes this when
    the request's [d_finished] time arrives — and start the drive's next
    pending request per the scheduler, if any.  Raises
    [Invalid_argument] naming the drive and its queue depth if the drive
    has nothing in service. *)

(** {2 Allocation-free dispatch surface}

    {!submit_runs} / {!complete_flat} are {!submit} / {!complete} minus
    the extent list and the per-call [dispatched] records: the requests
    started by the last call sit in an internal flat buffer read through
    the [dispatched_*] accessors (valid indices are
    [0 .. dispatched_len - 1], until the next [submit_runs] /
    [complete_flat] on this array).  Observationally identical to the
    list-taking calls — same dispatch order, same clocks. *)

val submit_runs : t -> now:float -> kind:kind -> Rofs_util.Runs.t -> op

val complete_flat : t -> drive:int -> op
(** Returns the operation the retired request belonged to (check
    {!op_done}); the follow-on dispatch, if any, is in the buffer. *)

val dispatched_len : t -> int
val dispatched_op_id : t -> int -> int
val dispatched_drive : t -> int -> int
val dispatched_started : t -> int -> float
val dispatched_finished : t -> int -> float
val dispatched_bytes : t -> int -> int
val dispatched_parity : t -> int -> bool

val op_began : op -> float
(** [(op_service op).began] without building the record. *)

val op_finished : op -> float
(** [(op_service op).finished] without building the record. *)

val pending : t -> drive:int -> int
(** Requests on [drive]'s dispatch queue, including the one in
    service. *)

val in_service_finish : t -> drive:int -> float option
(** Completion time of [drive]'s in-service request, if one is moving —
    what a caller that lost its completion events (e.g. across an
    experiment phase change) must re-post. *)

(** {1 Drive failure, repair and online rebuild}

    Failures take effect at mapping time: operations mapped after
    {!fail_drive} route around the dead arm (or raise
    {!Rofs_fault.State.Data_loss} when the layout cannot cover the
    loss), while requests already queued or in service on that drive
    drain normally — the model's granularity is the logical operation,
    not the platter.  Degraded service pays real I/O: a mirrored read
    fails over to the surviving arm, a RAID-5 / parity-striped read of a
    dead unit reconstructs it from the row's surviving units (each read
    paying its own positioning and transfer), a degraded write skips the
    dead arm and logs the dirty region.  After {!repair_drive}, a
    redundant layout resynchronises the drive with a background sweep
    driven by {!rebuild_step}. *)

val fail_drive : t -> drive:int -> unit
(** Mark a drive failed.  Newly mapped operations no longer use it. *)

val repair_drive : t -> drive:int -> unit
(** Return a failed drive to service: redundant layouts enter the
    rebuild sweep (serve {!rebuild_step} until it reports done);
    [Striped] arrays — nothing to reconstruct from — return straight to
    healthy.  No-op unless the drive is failed. *)

val drive_state : t -> drive:int -> [ `Healthy | `Failed | `Rebuilding of float ]
(** Current health; [`Rebuilding f] carries the fraction of the drive
    already resynchronised. *)

val fault_state : t -> Rofs_fault.State.t
(** The array's fault state: per-drive status, media-error counters,
    dirty-region log.  Read-mostly for reporting; transitions go through
    {!fail_drive} / {!repair_drive}. *)

type rebuild_step =
  | Rebuild_idle  (** the drive is not rebuilding *)
  | Rebuild_blocked  (** a reconstruction source is unavailable; retry later *)
  | Rebuild_done  (** sweep complete; the drive is healthy again *)
  | Rebuild_sync of float  (** synchronous path: the rebuild I/O's completion time *)
  | Rebuild_queued of op
      (** queued path: the rebuild I/O went through the dispatch queues;
          the chunks it started are read through {!dispatched_len} and
          friends, as after {!submit_runs} *)

val rebuild_step : t -> now:float -> queued:bool -> drive:int -> rebuild_step
(** Issue the next background rebuild I/O for [drive]: read the next
    [rebuild_chunk_bytes] region from every surviving redundancy-group
    member (the mirror partner, or all other drives for RAID-5 / parity
    striping) and write the reconstruction to [drive].  All of it is
    redundancy traffic — it never counts as data throughput, but it
    competes with foreground work for the arms.  [queued] selects the
    dispatch-queue path ({!submit}-style) over the synchronous one; the
    caller paces successive calls ([rebuild_rate_bytes_per_ms]). *)

val utilization : t -> now:float -> float
(** Fraction of elapsed time the drives spent busy, averaged over
    drives; [0.] at time zero. *)

val bytes_moved : t -> int
(** Total data bytes transferred (excludes mirror copies and parity
    traffic). *)

val ckpt_save : t -> string
(** Opaque snapshot of the array's mutable state: drive clocks and
    statistics, dispatch queues, in-service requests (with their shared
    operation records), the service RNG and the data-byte counter.  The
    fault state is snapshotted separately via {!fault_state} and
    {!Rofs_fault.State.ckpt_save}. *)

val ckpt_load : t -> string -> unit
(** Restore a {!ckpt_save} snapshot into [t], in place.  [t] must have
    been built with the same geometry, disk count, scheduler and
    config; the engine validates this with a config fingerprint. *)

val reset : t -> unit
(** Reset every drive's clock, arm and statistics. *)

val drive_stats : t -> Drive.stats array

val drive_busy_until : t -> drive:int -> float
(** The drive's private busy clock — how far its eagerly-simulated
    service timeline has advanced.  On the synchronous path this can run
    past the engine clock (whole operations are served on submission),
    so it is the honest denominator for a utilization figure. *)

(** {1 Instrumentation}

    Observability is strictly opt-in: with no sink attached (the
    default) the array performs no recording and no extra allocation,
    and attaching one never changes simulated results — the frozen
    goldens in the test suite pin both properties. *)

val attach_obs : t -> Rofs_obs.Sink.t -> unit
(** Route per-request instrumentation — service-time breakdown,
    seek-distance and queue-depth samples, fault penalties, and (when
    the sink traces) chunk-level events — into [sink]. *)

val obs : t -> Rofs_obs.Sink.t option

val last_breakdown : t -> float * float * float * float
(** [(seek, rotation, transfer, fault_penalty)] totals in ms of the most
    recent {!service} / {!access} call.  Only meaningful immediately
    after that call and only while a sink is attached. *)

val pp_config : Format.formatter -> config -> unit
