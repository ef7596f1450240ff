module Alloc = Rofs_alloc
module Array_model = Rofs_disk.Array_model
module Fault_plan = Rofs_fault.Plan
module File_type = Rofs_workload.File_type
module Workload = Rofs_workload.Workload
module Rng = Rofs_util.Rng
module Sink = Rofs_obs.Sink
module Timeline = Rofs_obs.Timeline

type policy_spec =
  | Buddy of Alloc.Buddy.config
  | Restricted of Alloc.Restricted_buddy.config
  | Extent of Alloc.Extent_alloc.config
  | Fixed of Alloc.Fixed_block.config
  | Log_structured of Alloc.Log_structured.config

let spec_unit_bytes = function
  | Buddy c -> c.Alloc.Buddy.unit_bytes
  | Restricted c -> c.Alloc.Restricted_buddy.unit_bytes
  | Extent c -> c.Alloc.Extent_alloc.unit_bytes
  | Fixed c -> c.Alloc.Fixed_block.unit_bytes
  | Log_structured c -> c.Alloc.Log_structured.unit_bytes

let capacity_units (config : Engine.config) ~unit_bytes =
  let array =
    Array_model.create ~disks:config.Engine.disks
      (config.Engine.array_config config.Engine.stripe_unit_bytes)
  in
  Array_model.capacity_bytes array / unit_bytes

let build_policy spec ~total_units ~rng =
  match spec with
  | Buddy c -> Alloc.Buddy.create c ~total_units
  | Restricted c -> Alloc.Restricted_buddy.create c ~total_units
  | Extent c -> Alloc.Extent_alloc.create c ~total_units ~rng
  | Fixed c -> Alloc.Fixed_block.create c ~total_units ~rng
  | Log_structured c -> Alloc.Log_structured.create c ~total_units

let make_engine ?recorder ?(config = Engine.default_config) spec workload =
  let unit_bytes = spec_unit_bytes spec in
  let total_units = capacity_units config ~unit_bytes in
  (* A seed distinct from the engine's keeps policy-internal draws
     (extent sizes, free-list aging) decoupled from event scheduling. *)
  let rng = Rofs_util.Rng.create ~seed:(config.Engine.seed + 0x5eed) in
  let policy = build_policy spec ~total_units ~rng in
  Engine.create ?recorder config ~policy ~workload

let run_allocation ?config spec workload =
  let engine = make_engine ?config spec workload in
  Engine.run_allocation_test engine

type plan = {
  seeds : int list option;
  jobs : int option;
  shards : int option;
  instrument : bool;
  trace : bool;
  timeline_every_ms : float option;
  ckpt_every_ms : float option;
  ckpt_save : (slice:int -> (string * string) list -> unit) option;
  ckpt_resume : (slice:int -> (string * string) list option) option;
  recorder : (Engine.recorded -> unit) option;
}

let default_plan =
  {
    seeds = None;
    jobs = None;
    shards = None;
    instrument = false;
    trace = false;
    timeline_every_ms = None;
    ckpt_every_ms = None;
    ckpt_save = None;
    ckpt_resume = None;
    recorder = None;
  }

type result = {
  application : Engine.throughput_report;
  sequential : Engine.throughput_report;
  cache : Engine.cache_report option;
  fault : Engine.fault_report;
  churn : Alloc.Policy.churn_stats;
  sink : Sink.t option;
  timeline : Timeline.t option;
  drives : Engine.drive_report array option;
  slices : int;
  shards : int;
}

(* One engine's run plus the weights its reports merge under. *)
type slice = { r : result; max_bw : float; capacity : float; files : int }

(* The throughput protocol of Section 3 on one engine, written once.
   The arming order is load-bearing: the sink, timeline and checkpoint
   tick are attached before [restore], which replaces the event heap
   wholesale, so a resumed run keeps the snapshot's own tick chains.
   The recorder covers initialization, fill and the application test —
   the window the replay bench verifies against — and the final
   snapshot lets a finished run resume instantly from its stored
   reports. *)
let run_engine (plan : plan) ~slice config spec workload =
  let engine = make_engine ?recorder:plan.recorder ~config spec workload in
  let sink = if plan.instrument then Some (Sink.create ~trace:plan.trace ()) else None in
  Option.iter (Engine.attach_obs engine) sink;
  Option.iter (fun every_ms -> Engine.attach_timeline engine ~every_ms) plan.timeline_every_ms;
  (match (plan.ckpt_every_ms, plan.ckpt_save) with
  | Some every_ms, Some save ->
      Engine.set_checkpoint engine ~every_ms (fun () -> save ~slice (Engine.checkpoint engine))
  | _ -> ());
  Option.iter (fun load -> Option.iter (Engine.restore engine) (load ~slice)) plan.ckpt_resume;
  Engine.fill_to_lower_bound engine;
  Engine.run_aging engine;
  let application = Engine.run_application_test engine in
  Engine.set_recorder engine None;
  let sequential = Engine.run_sequential_test engine in
  Option.iter (fun save -> save ~slice (Engine.checkpoint engine)) plan.ckpt_save;
  {
    r =
      {
        application;
        sequential;
        cache = Engine.cache_report engine;
        fault = Engine.fault_report engine;
        churn = Engine.churn_stats engine;
        sink;
        timeline = Engine.timeline engine;
        drives = Some (Engine.drive_reports engine);
        slices = 1;
        shards = 1;
      };
    max_bw = Engine.max_bandwidth_pct_base engine;
    capacity = float_of_int (Array_model.capacity_bytes (Engine.array_model engine));
    files =
      List.fold_left
        (fun acc (ft : File_type.t) -> acc + ft.File_type.count)
        0 workload.Workload.types;
  }

(* The decomposition is a pure function of the config alone: slice [i]
   gets [disks/slices] drives (+1 for the first [disks mod slices]
   slices) and an engine / fault seed derived from [(seed, i)] — never
   from the execution width, so every [shards] count simulates the
   identical set of slices. *)
let slice_configs (cfg : Engine.config) =
  let slices = cfg.Engine.shard_slices in
  Array.init slices (fun i ->
      let disks =
        (cfg.Engine.disks / slices) + if i < cfg.Engine.disks mod slices then 1 else 0
      in
      let seed = Rng.derive_seed ~seed:cfg.Engine.seed ~stream:i in
      let faults =
        {
          cfg.Engine.faults with
          Fault_plan.seed = Rng.derive_seed ~seed:cfg.Engine.faults.Fault_plan.seed ~stream:i;
        }
      in
      { cfg with Engine.seed; disks; faults; shard_slices = 1 })

(* Fold the slices' reports in fixed slice order: additive counters
   sum, rates sum (the slices ran side by side), the percentage is the
   summed rate against the summed bandwidth, durations take the max, and
   the dimensionless ratios merge under their natural weights (capacity
   for utilization, file count for extents per file). *)
let merge_throughput pick slices =
  let sumf f = Array.fold_left (fun acc sl -> acc +. f sl) 0. slices in
  let sum f = Array.fold_left (fun acc sl -> acc + f (pick sl.r)) 0 slices in
  let rate = sumf (fun sl -> (pick sl.r).Engine.bytes_per_ms) in
  let max_bw = sumf (fun sl -> sl.max_bw) in
  let cap = sumf (fun sl -> sl.capacity) and files = sumf (fun sl -> float_of_int sl.files) in
  let util_w = sumf (fun sl -> (pick sl.r).Engine.utilization *. sl.capacity) in
  let mepf_w =
    sumf (fun sl -> (pick sl.r).Engine.mean_extents_per_file *. float_of_int sl.files)
  in
  {
    Engine.pct_of_max = (if max_bw > 0. then 100. *. rate /. max_bw else 0.);
    bytes_per_ms = rate;
    measured_ms =
      Array.fold_left (fun acc sl -> Float.max acc (pick sl.r).Engine.measured_ms) 0. slices;
    checkpoints = Array.fold_left (fun acc sl -> max acc (pick sl.r).Engine.checkpoints) 0 slices;
    stabilized = Array.for_all (fun sl -> (pick sl.r).Engine.stabilized) slices;
    io_ops = sum (fun r -> r.Engine.io_ops);
    disk_fulls = sum (fun r -> r.Engine.disk_fulls);
    utilization = (if cap > 0. then util_w /. cap else 0.);
    mean_extents_per_file = (if files > 0. then mepf_w /. files else 0.);
    meta_bytes = sum (fun r -> r.Engine.meta_bytes);
  }

(* Cache counters sum; the per-type rows merge by type name in
   first-seen slice order (a slice only lists the types its partition
   gave it); configuration fields come from slice 0. *)
let merge_cache slices =
  if Array.exists (fun sl -> Option.is_none sl.r.cache) slices then None
  else begin
    let cs = Array.map (fun sl -> Option.get sl.r.cache) slices in
    let sum f = Array.fold_left (fun acc c -> acc + f c) 0 cs in
    let per_type = Hashtbl.create 8 and names = ref [] in
    Array.iter
      (fun (c : Engine.cache_report) ->
        Array.iter
          (fun (name, h, m) ->
            match Hashtbl.find_opt per_type name with
            | Some (h0, m0) -> Hashtbl.replace per_type name (h0 + h, m0 + m)
            | None ->
                Hashtbl.add per_type name (h, m);
                names := name :: !names)
          c.Engine.cr_per_type)
      cs;
    let lookups = sum (fun c -> c.Engine.cr_lookups) in
    let hits = sum (fun c -> c.Engine.cr_hits) in
    Some
      {
        (cs.(0)) with
        Engine.cr_lookups = lookups;
        cr_hits = hits;
        cr_misses = sum (fun c -> c.Engine.cr_misses);
        cr_hit_rate = (if lookups > 0 then float_of_int hits /. float_of_int lookups else 0.);
        cr_hit_bytes = sum (fun c -> c.Engine.cr_hit_bytes);
        cr_insertions = sum (fun c -> c.Engine.cr_insertions);
        cr_evictions = sum (fun c -> c.Engine.cr_evictions);
        cr_dirty_evictions = sum (fun c -> c.Engine.cr_dirty_evictions);
        cr_flushes = sum (fun c -> c.Engine.cr_flushes);
        cr_writeback_bytes = sum (fun c -> c.Engine.cr_writeback_bytes);
        cr_prefetched_pages = sum (fun c -> c.Engine.cr_prefetched_pages);
        cr_invalidations = sum (fun c -> c.Engine.cr_invalidations);
        cr_per_type =
          Array.of_list
            (List.rev_map
               (fun name ->
                 let h, m = Hashtbl.find per_type name in
                 (name, h, m))
               !names);
      }
  end

(* Drive states concatenate in slice order (slice 0's drives first);
   every counter sums. *)
let merge_fault slices =
  let sum f = Array.fold_left (fun acc sl -> acc + f sl.r.fault) 0 slices in
  {
    Engine.drive_states =
      Array.concat (Array.to_list (Array.map (fun sl -> sl.r.fault.Engine.drive_states) slices));
    data_loss = sum (fun f -> f.Engine.data_loss);
    media_errors = sum (fun f -> f.Engine.media_errors);
    retries = sum (fun f -> f.Engine.retries);
    remaps = sum (fun f -> f.Engine.remaps);
    remap_hits = sum (fun f -> f.Engine.remap_hits);
    reconstructed_reads = sum (fun f -> f.Engine.reconstructed_reads);
    degraded_writes = sum (fun f -> f.Engine.degraded_writes);
    dirty_bytes = sum (fun f -> f.Engine.dirty_bytes);
    rebuild_ios = sum (fun f -> f.Engine.rebuild_ios);
  }

let merge_churn slices =
  let sum f = Array.fold_left (fun acc sl -> acc + f sl.r.churn) 0 slices in
  {
    Alloc.Policy.cs_user_units = sum (fun c -> c.Alloc.Policy.cs_user_units);
    cs_moved_units = sum (fun c -> c.Alloc.Policy.cs_moved_units);
    cs_cleaner_passes = sum (fun c -> c.Alloc.Policy.cs_cleaner_passes);
  }

(* Sinks and timelines fold in fixed slice order with their own
   elementwise merges (integer counts, per-drive columns concatenated
   slice 0 first), so the result is byte-identical at every width. *)
let merge_some merge xs =
  Array.fold_left
    (fun acc x ->
      match (acc, x) with
      | None, x -> x
      | acc, None -> acc
      | Some a, Some b -> Some (merge a b))
    None xs

(* One throughput run for one seed.  Unsharded, it is a single engine
   over the whole configured system.  Sharded, the run splits into
   [config.shard_slices] independent slices — drives in contiguous
   ranges, the workload partitioned by disk count, RNG streams derived
   from [(seed, slice)] — executed on [shards] domains and merged in
   slice order.  [shard_slices = 1] reuses the config and workload
   verbatim, so its reports are the unsharded ones. *)
let run_one (plan : plan) config spec workload =
  match plan.shards with
  | None -> (run_engine plan ~slice:0 config spec workload).r
  | Some shards ->
      Engine.validate_config ~shards config;
      Workload.validate workload;
      if config.Engine.shard_slices > config.Engine.disks then
        invalid_arg "Engine.config: shard_slices must not exceed disks";
      let n = config.Engine.shard_slices in
      let cfgs = if n = 1 then [| config |] else slice_configs config in
      let parts =
        Workload.partition workload ~weights:(Array.map (fun c -> c.Engine.disks) cfgs)
      in
      let slices =
        Rofs_par.Pool.map ~jobs:shards
          (fun i -> run_engine plan ~slice:i cfgs.(i) spec parts.(i))
          (Array.init n Fun.id)
      in
      let first = slices.(0).r in
      let merged =
        if n = 1 then first
        else
          {
            first with
            application = merge_throughput (fun r -> r.application) slices;
            sequential = merge_throughput (fun r -> r.sequential) slices;
            cache = merge_cache slices;
            fault = merge_fault slices;
            churn = merge_churn slices;
            slices = n;
          }
      in
      {
        merged with
        sink = merge_some Sink.merge (Array.map (fun sl -> sl.r.sink) slices);
        timeline = merge_some Timeline.merge (Array.map (fun sl -> sl.r.timeline) slices);
        drives = None;
        shards;
      }

let run ?(config = Engine.default_config) (plan : plan) spec workload =
  let single_run =
    Option.is_some plan.recorder || Option.is_some plan.ckpt_save
    || Option.is_some plan.ckpt_resume
  in
  if single_run && plan.seeds <> None then
    invalid_arg "Experiment.run: recording and checkpointing cover one seed (no seeds list)";
  if Option.is_some plan.recorder && plan.shards <> None then
    invalid_arg "Experiment.run: recording needs an unsharded run";
  match plan.seeds with
  | None -> [| run_one plan config spec workload |]
  | Some [] -> invalid_arg "Experiment.run: no seeds"
  | Some seeds ->
      Rofs_par.Pool.map ?jobs:plan.jobs
        (fun seed -> run_one plan { config with Engine.seed } spec workload)
        (Array.of_list seeds)

type summary = { mean : float; stddev : float; runs : int }

(* Fold the per-seed percentages with [Stats.add] in seed order.  Each
   run is computed in full isolation, so this fold sees exactly the
   sample sequence a serial loop produces — summaries are byte-identical
   at every job count. *)
let summarize results =
  let of_stats stats =
    {
      mean = Rofs_util.Stats.mean stats;
      stddev = Rofs_util.Stats.stddev stats;
      runs = Rofs_util.Stats.count stats;
    }
  in
  let app_stats = Rofs_util.Stats.create () and seq_stats = Rofs_util.Stats.create () in
  Array.iter
    (fun r ->
      Rofs_util.Stats.add app_stats r.application.Engine.pct_of_max;
      Rofs_util.Stats.add seq_stats r.sequential.Engine.pct_of_max)
    results;
  (of_stats app_stats, of_stats seq_stats)

type matrix_cell = {
  m_policy : string;
  m_workload : string;
  m_application : summary;
  m_sequential : summary;
}

let run_matrix ?(config = Engine.default_config) ?jobs ~seeds ~policies workloads =
  if seeds = [] then invalid_arg "Experiment.run_matrix: no seeds";
  if policies = [] then invalid_arg "Experiment.run_matrix: no policies";
  if workloads = [] then invalid_arg "Experiment.run_matrix: no workloads";
  (* One flat task list over the whole grid so short and long cells
     load-balance across the pool; cells are generated (and summarized)
     in policy-major, workload-minor, seed order, so the output is
     independent of scheduling. *)
  let cells =
    List.concat_map
      (fun (pname, spec_of) ->
        List.concat_map
          (fun (w : Rofs_workload.Workload.t) ->
            let spec = spec_of w in
            List.map (fun seed -> (pname, spec, w, seed)) seeds)
          workloads)
      policies
  in
  let results =
    Rofs_par.Pool.map ?jobs
      (fun (_, spec, w, seed) -> run_one default_plan { config with Engine.seed } spec w)
      (Array.of_list cells)
  in
  let nseeds = List.length seeds and nworkloads = List.length workloads in
  List.concat
    (List.mapi
       (fun pi (pname, _) ->
         List.mapi
           (fun wi (w : Rofs_workload.Workload.t) ->
             let block = Array.sub results (((pi * nworkloads) + wi) * nseeds) nseeds in
             let app, seq = summarize block in
             {
               m_policy = pname;
               m_workload = w.Rofs_workload.Workload.name;
               m_application = app;
               m_sequential = seq;
             })
           workloads)
       policies)
