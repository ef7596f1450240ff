(** Read-optimized file system designs: simulation library façade.

    This library reproduces Seltzer & Stonebraker, "Read Optimized File
    System Designs: A Performance Evaluation" (ICDE 1991): an
    event-driven simulation comparing disk allocation policies — binary
    buddy, restricted buddy, extent-based and fixed-block — on a striped
    disk array, under time-sharing, transaction-processing and
    supercomputing workloads.

    Typical use:
    {[
      let spec =
        Core.Experiment.Restricted
          (Core.Restricted_buddy.config
             ~block_sizes_bytes:(Core.Restricted_buddy.paper_block_sizes 5) ())
      in
      let r = (Core.Experiment.run Core.Experiment.default_plan spec Core.Workload.sc).(0) in
      Printf.printf "application %.1f%%, sequential %.1f%%\n"
        r.Core.Experiment.application.Core.Engine.pct_of_max
        r.Core.Experiment.sequential.Core.Engine.pct_of_max
    ]}

    The submodules are re-exports of the underlying libraries; see their
    interfaces for details. *)

(** {1 Utilities} *)

module Rng = Rofs_util.Rng
module Dist = Rofs_util.Dist
module Heap = Rofs_util.Heap
module Stats = Rofs_util.Stats
module Bitset = Rofs_util.Bitset
module Free_tree = Rofs_util.Free_tree
module Vec = Rofs_util.Vec
module Runs = Rofs_util.Runs
module Units = Rofs_util.Units
module Table = Rofs_util.Table

(** {1 Parallelism}

    Domain worker pool for independent simulation cells: [Pool.map]
    returns results in input order, so experiment aggregates are
    byte-identical at every job count ([--jobs] / [ROFS_JOBS]). *)

module Pool = Rofs_par.Pool

(** {1 Fault injection}

    Deterministic seeded fault plans (drive failures / repairs, media
    errors) and the runtime fault state the disk array keeps: drive
    health, sector remaps, dirty regions, degraded-mode counters. *)

module Fault_plan = Rofs_fault.Plan
module Fault = Rofs_fault.State

(** {1 Observability}

    Pay-for-what-you-use instrumentation: log-bucketed latency
    histograms with service-time breakdown, per-drive counters, a
    bounded event trace (JSONL / Chrome trace format) and a small JSON
    codec for machine-readable reports.  With no sink attached the
    simulation allocates nothing extra and produces bit-identical
    results. *)

module Obs = Rofs_obs
module Hist = Rofs_obs.Hist
module Sink = Rofs_obs.Sink
module Timeline = Rofs_obs.Timeline

(** {1 Disk system} *)

module Geometry = Rofs_disk.Geometry
module Drive = Rofs_disk.Drive
module Array_model = Rofs_disk.Array_model

(** {1 Scheduling}

    Per-drive request schedulers used by the array's dispatch-queue
    path: FCFS (the default, equivalent to the original busy-clock
    model), SSTF, SCAN and C-LOOK. *)

module Sched_policy = Rofs_sched.Policy
module Scheduler = Rofs_sched.Scheduler

(** {1 Buffer cache}

    Deterministic shared block buffer cache: pluggable replacement
    (LRU / CLOCK / 2Q), write-through or write-back with dirty-page
    coalescing, and sequential prefetch.  Enabled via
    [Engine.config.cache]; the default [None] keeps the engine
    byte-identical to the uncached simulator. *)

module Cache = Rofs_cache.Cache
module Cache_policy = Rofs_cache.Policy
module Cache_replacement = Rofs_cache.Replacement

(** {1 Allocation policies} *)

module Extent = Rofs_alloc.Extent
module File_extents = Rofs_alloc.File_extents
module Policy = Rofs_alloc.Policy
module Buddy = Rofs_alloc.Buddy
module Restricted_buddy = Rofs_alloc.Restricted_buddy
module Extent_alloc = Rofs_alloc.Extent_alloc
module Fixed_block = Rofs_alloc.Fixed_block
module Log_structured = Rofs_alloc.Log_structured

(** {1 Workloads} *)

module File_type = Rofs_workload.File_type
module Workload = Rofs_workload.Workload
module Aging = Rofs_workload.Aging
module Trace = Rofs_workload.Trace

(** {1 Simulation} *)

module Volume = Rofs_sim.Volume
module Engine = Rofs_sim.Engine
module Report = Rofs_sim.Report
module Experiment = Rofs_sim.Experiment

(** {1 Checkpoint / restore}

    Crash-safe snapshot container: versioned, per-section CRC-checked,
    written atomically (temp file + rename).  [Engine.checkpoint] /
    [Engine.restore] serialize the full engine state into it so a
    resumed run is bit-identical to one left uninterrupted. *)

module Ckpt = Rofs_ckpt.Ckpt

(** {1 Trace replay} *)

module Trace_codec = Rofs_trace_replay.Codec
module Trace_import = Rofs_trace_replay.Import
module Trace_recorder = Rofs_trace_replay.Recorder
module Trace_replay = Rofs_trace_replay.Replay

val version : string
