(** Ready-made experiment plumbing: build a policy, size it to the
    array, and run the paper's three tests.

    The throughput pair mirrors Section 3's protocol: one system is
    initialized and filled to the lower utilization bound, the
    application-performance test runs to stabilization, and the
    sequential test then runs {e on the same aged system}. *)

type policy_spec =
  | Buddy of Rofs_alloc.Buddy.config
  | Restricted of Rofs_alloc.Restricted_buddy.config
  | Extent of Rofs_alloc.Extent_alloc.config
  | Fixed of Rofs_alloc.Fixed_block.config
  | Log_structured of Rofs_alloc.Log_structured.config
      (** the Section 6 extension; see {!Rofs_alloc.Log_structured} *)

val spec_unit_bytes : policy_spec -> int

val capacity_units : Engine.config -> unit_bytes:int -> int
(** Data capacity of the array the engine config describes, in units. *)

val build_policy :
  policy_spec -> total_units:int -> rng:Rofs_util.Rng.t -> Rofs_alloc.Policy.t

val make_engine :
  ?recorder:(Engine.recorded -> unit) ->
  ?config:Engine.config ->
  policy_spec ->
  Rofs_workload.Workload.t ->
  Engine.t
(** Build array + policy + engine and run initialization; [recorder]
    (attached before initialization) captures the run as a trace. *)

val run_allocation :
  ?config:Engine.config -> policy_spec -> Rofs_workload.Workload.t -> Engine.alloc_report
(** The fragmentation (allocation) test of Section 3. *)

(** {1 Throughput runs}

    One entry point, {!run}, for the throughput protocol: a {!plan}
    says how many runs (seeds), how each is executed (unsharded or
    sharded) and what each carries along (sink, trace, timeline,
    checkpoints, trace recorder). *)

type plan = {
  seeds : int list option;
      (** [None]: one run at [config.seed].  [Some seeds]: one isolated
          run per seed ([config] with its seed replaced), results in
          seed order.  [Some []] is refused. *)
  jobs : int option;
      (** domains the seed runs spread over (default
          {!Rofs_par.Pool.default_jobs}); results are identical at every
          count *)
  shards : int option;
      (** [None]: each run is one engine over the whole system.
          [Some n]: each run splits into [config.shard_slices]
          independent slices executed on [n] domains and merged in
          slice order — byte-identical at every [n] *)
  instrument : bool;  (** attach a fresh {!Rofs_obs.Sink.t} per engine *)
  trace : bool;  (** with [instrument]: the sinks also keep the bounded event trace *)
  timeline_every_ms : float option;  (** attach a timeline per engine with this window *)
  ckpt_every_ms : float option;
      (** with [ckpt_save]: arm periodic checkpointing at this cadence *)
  ckpt_save : (slice:int -> (string * string) list -> unit) option;
      (** receives each engine's snapshots (slice 0 when unsharded),
          periodic ones and a final one after the sequential test *)
  ckpt_resume : (slice:int -> (string * string) list option) option;
      (** consulted once per engine before the fill; [Some sections]
          restores them *)
  recorder : (Engine.recorded -> unit) option;
      (** attached from initialization through the application test;
          unsharded single-seed runs only *)
}

val default_plan : plan
(** One unsharded, uninstrumented run at [config.seed]. *)

type result = {
  application : Engine.throughput_report;
  sequential : Engine.throughput_report;
  cache : Engine.cache_report option;  (** [None] when the config has no cache *)
  fault : Engine.fault_report;
  churn : Rofs_alloc.Policy.churn_stats;
  sink : Rofs_obs.Sink.t option;  (** [None] unless [instrument] *)
  timeline : Rofs_obs.Timeline.t option;  (** [None] unless [timeline_every_ms] *)
  drives : Engine.drive_report array option;  (** per-drive reports; unsharded runs only *)
  slices : int;  (** engines simulated: [config.shard_slices] sharded, 1 unsharded *)
  shards : int;  (** execution width used: [n] for [Some n], 1 unsharded *)
}
(** One throughput run: fill to N, the application test, then the
    sequential test on the same aged system.

    Sharded runs merge in slice order: additive counters sum; rates sum
    (slices run side by side) and [pct_of_max] is the summed rate
    against the summed per-slice bandwidth; [measured_ms] /
    [checkpoints] take the max; [stabilized] holds iff every slice
    stabilized; [utilization] is capacity-weighted and
    [mean_extents_per_file] file-count-weighted; cache counters sum
    (per-type rows by name, first-seen order); fault drive states
    concatenate slice 0 first; sinks and timelines fold with their own
    [merge].  With [config.shard_slices = 1] the one slice reuses the
    config and workload verbatim, so its reports equal the unsharded
    run's. *)

val run :
  ?config:Engine.config -> plan -> policy_spec -> Rofs_workload.Workload.t -> result array
(** [run ~config plan spec workload] runs the throughput protocol as
    [plan] says and returns one result per seed, in seed order (one
    element without [seeds]).  Each engine is armed, in this order,
    with the sink, the timeline and the checkpoint tick, then restored
    when [ckpt_resume] has a snapshot for it, then filled, aged and
    measured.  Simulated results do not depend on [jobs], [shards] or
    instrumentation.
    @raise Invalid_argument on [Some []] seeds, a recorder or
    checkpoint callbacks combined with [seeds], a recorder combined
    with [shards], and, when sharded, a non-positive [shards], an
    invalid config, [config.shard_slices] above [config.disks] or a
    workload too small to give every slice a file and a user. *)

type summary = { mean : float; stddev : float; runs : int }
(** Aggregate of one metric over repeated runs. *)

val summarize : result array -> summary * summary
(** Mean and (unbiased) sample deviation of the application and
    sequential percentages, folded in array (= seed) order, so a seed
    sweep's summary is byte-identical at every [jobs] count (enforced
    by [test/test_par.ml]'s frozen goldens). *)

type matrix_cell = {
  m_policy : string;
  m_workload : string;
  m_application : summary;
  m_sequential : summary;
}
(** One (policy, workload) cell of a replicated grid. *)

val run_matrix :
  ?config:Engine.config ->
  ?jobs:int ->
  seeds:int list ->
  policies:(string * (Rofs_workload.Workload.t -> policy_spec)) list ->
  Rofs_workload.Workload.t list ->
  matrix_cell list
(** Run every (policy, workload, seed) cell of the grid as {!run}
    does under {!default_plan} — policies may depend on the workload, as
    the paper's extent ranges and fixed block sizes do — and
    {!summarize} each (policy, workload) pair over its seeds.  The whole
    grid is one flat task list on the pool, so cells load-balance across
    domains; output order (policy-major, workload-minor) and every value
    are independent of [jobs].  Raises [Invalid_argument] if any of the
    three axes is empty. *)
