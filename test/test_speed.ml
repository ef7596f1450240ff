(* Sharded-run determinism battery (the sharding PR's headline test):

   - partition invariance: a sharded Experiment.run produces bit-identical
     merged reports (throughput, cache counters, fault counters) at
     shards 1 / 2 / 4 / 8 for every allocator policy on every mini
     workload — the "--shards changes the wall clock and nothing else"
     guarantee, one level below test_par.ml's per-seed pool goldens;
   - frozen goldens: the sliced (shard_slices = 4) percentages were
     captured once and pinned as hex floats, so the decomposition
     itself (slice configs, RNG stream derivation, workload partition,
     merge order) cannot drift silently;
   - serial equivalence: with shard_slices = 1 the sharded entry point
     is byte-identical to the unsharded run, field for field;
   - instrumented runs: attaching per-slice sinks (with tracing) merges
     to the same Sink JSON at every shard count;
   - hot-path allocation: a queued-path (SSTF) run and a default
     synchronous FCFS run are bounded in minor words allocated per
     simulated operation — the regression guard for the engine's
     preallocated-scratch / pooled-event design — and extent first-fit
     churn on a shattered volume is bounded in minor words per extent
     claimed or released;
   - validation: --shards 0 style misuse raises Invalid_argument, and
     Workload.partition's arithmetic invariants hold.

   Regenerate the goldens after an intentional behavior change with:
     ROFS_GOLDEN_CAPTURE=1 dune exec test/test_speed.exe 2>/dev/null *)

module C = Core
module Workload = C.Workload
module File_type = C.File_type
module Engine = C.Engine
module Experiment = C.Experiment

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_exact_float name a b = Alcotest.(check (float 0.)) name a b

(* ------------------------------------------------------------------ *)
(* Mini workloads: frozen verbatim (same as test_par.ml — the goldens
   below depend on every field). *)
(* ------------------------------------------------------------------ *)

let mini_tp =
  {
    Workload.name = "MINI-TP";
    description = "scaled transaction-processing workload";
    types =
      [
        {
          File_type.name = "relation";
          count = 8;
          users = 8;
          process_time_ms = 20.;
          hit_freq_ms = 30.;
          rw_mean_bytes = 16 * 1024;
          rw_dev_bytes = 0;
          alloc_hint_bytes = 1024 * 1024;
          truncate_bytes = 4 * 1024;
          initial_mean_bytes = 25 * 1024 * 1024;
          initial_dev_bytes = 4 * 1024 * 1024;
          read_pct = 60;
          write_pct = 30;
          extend_pct = 6;
          delete_pct_of_deallocs = 0;
          pattern = File_type.Random_access;
        };
      ];
  }

let mini_sc =
  {
    Workload.name = "MINI-SC";
    description = "scaled supercomputing workload";
    types =
      [
        {
          File_type.name = "big";
          count = 4;
          users = 4;
          process_time_ms = 30.;
          hit_freq_ms = 50.;
          rw_mean_bytes = 512 * 1024;
          rw_dev_bytes = 0;
          alloc_hint_bytes = 16 * 1024 * 1024;
          truncate_bytes = 512 * 1024;
          initial_mean_bytes = 40 * 1024 * 1024;
          initial_dev_bytes = 8 * 1024 * 1024;
          read_pct = 60;
          write_pct = 30;
          extend_pct = 8;
          delete_pct_of_deallocs = 0;
          pattern = File_type.Sequential;
        };
      ];
  }

let mini_ts =
  {
    Workload.name = "MINI-TS";
    description = "scaled timesharing workload";
    types =
      [
        {
          File_type.name = "small";
          count = 200;
          users = 6;
          process_time_ms = 10.;
          hit_freq_ms = 25.;
          rw_mean_bytes = 8 * 1024;
          rw_dev_bytes = 0;
          alloc_hint_bytes = 8 * 1024;
          truncate_bytes = 4 * 1024;
          initial_mean_bytes = 8 * 1024;
          initial_dev_bytes = 2 * 1024;
          read_pct = 55;
          write_pct = 25;
          extend_pct = 10;
          delete_pct_of_deallocs = 70;
          pattern = File_type.Whole_file;
        };
        {
          File_type.name = "large";
          count = 100;
          users = 3;
          process_time_ms = 20.;
          hit_freq_ms = 40.;
          rw_mean_bytes = 24 * 1024;
          rw_dev_bytes = 8 * 1024;
          alloc_hint_bytes = 1024 * 1024;
          truncate_bytes = 96 * 1024;
          initial_mean_bytes = 2 * 1024 * 1024;
          initial_dev_bytes = 256 * 1024;
          read_pct = 60;
          write_pct = 15;
          extend_pct = 15;
          delete_pct_of_deallocs = 20;
          pattern = File_type.Sequential;
        };
      ];
  }

(* 4 disks so the default shard_slices = 4 gives one disk per slice —
   the finest decomposition, hence the most merge arithmetic to pin.
   Low fill bounds and short 15-second measurement windows: the battery
   runs every policy x workload cell at four shard counts, and bitwise
   equality does not need aged or stabilized runs, just identical ones
   (high-utilization behavior is test_par.ml's and test_sim.ml's
   business). *)
let sharded_config =
  {
    Engine.default_config with
    disks = 4;
    lower_bound = 0.25;
    upper_bound = 0.35;
    interval_ms = 5_000.;
    max_measure_ms = 15_000.;
    warmup_checkpoints = 1;
    (* MINI-TS net-grows very slowly per churn op, so an uncapped fill
       would spend millions of allocation ops inching toward the bound;
       the cap cuts the fill short at a deterministic point instead. *)
    max_alloc_ops = 200_000;
  }

let k = 1024
let m = 1024 * 1024

let policies (w : Workload.t) =
  let ts = w.Workload.name = "MINI-TS" in
  [
    ("buddy", C.Experiment.Buddy C.Buddy.default_config);
    ( "restricted",
      C.Experiment.Restricted
        (C.Restricted_buddy.config ~grow_factor:1 ~clustered:true
           ~block_sizes_bytes:(C.Restricted_buddy.paper_block_sizes 5)
           ()) );
    ( "extent",
      C.Experiment.Extent
        (C.Extent_alloc.config ~fit:C.Extent_alloc.First_fit
           ~range_means_bytes:(if ts then [ 96 * k; m; 4 * m ] else [ 512 * k; m; 16 * m ])
           ()) );
    ( "fixed",
      C.Experiment.Fixed
        (C.Fixed_block.config ~block_bytes:(if ts then 4 * k else 16 * k) ()) );
    ("lfs", C.Experiment.Log_structured (C.Log_structured.config ()));
  ]

let edge_spec = C.Experiment.Fixed (C.Fixed_block.config ~block_bytes:(16 * 1024) ())

(* One run of [spec] on [w] sharded on [shards] domains. *)
let run_sharded ?(plan = Experiment.default_plan) ~config ~shards spec w =
  (Experiment.run ~config { plan with shards = Some shards } spec w).(0)

(* ------------------------------------------------------------------ *)
(* Field-by-field bitwise equality helpers                             *)
(* ------------------------------------------------------------------ *)

let check_tp_equal name (a : Engine.throughput_report) (b : Engine.throughput_report) =
  check_exact_float (name ^ " pct_of_max") a.Engine.pct_of_max b.Engine.pct_of_max;
  check_exact_float (name ^ " bytes_per_ms") a.Engine.bytes_per_ms b.Engine.bytes_per_ms;
  check_exact_float (name ^ " measured_ms") a.Engine.measured_ms b.Engine.measured_ms;
  check_int (name ^ " checkpoints") a.Engine.checkpoints b.Engine.checkpoints;
  check_bool (name ^ " stabilized") a.Engine.stabilized b.Engine.stabilized;
  check_int (name ^ " io_ops") a.Engine.io_ops b.Engine.io_ops;
  check_int (name ^ " disk_fulls") a.Engine.disk_fulls b.Engine.disk_fulls;
  check_exact_float (name ^ " utilization") a.Engine.utilization b.Engine.utilization;
  check_exact_float
    (name ^ " mean_extents_per_file")
    a.Engine.mean_extents_per_file b.Engine.mean_extents_per_file;
  check_int (name ^ " meta_bytes") a.Engine.meta_bytes b.Engine.meta_bytes

let check_fault_equal name (a : Engine.fault_report) (b : Engine.fault_report) =
  check_bool (name ^ " drive_states") true (a.Engine.drive_states = b.Engine.drive_states);
  check_int (name ^ " data_loss") a.Engine.data_loss b.Engine.data_loss;
  check_int (name ^ " media_errors") a.Engine.media_errors b.Engine.media_errors;
  check_int (name ^ " retries") a.Engine.retries b.Engine.retries;
  check_int (name ^ " remaps") a.Engine.remaps b.Engine.remaps;
  check_int (name ^ " reconstructed") a.Engine.reconstructed_reads b.Engine.reconstructed_reads;
  check_int (name ^ " degraded_writes") a.Engine.degraded_writes b.Engine.degraded_writes;
  check_int (name ^ " rebuild_ios") a.Engine.rebuild_ios b.Engine.rebuild_ios

let check_cache_equal name (a : Engine.cache_report option) (b : Engine.cache_report option) =
  match (a, b) with
  | None, None -> ()
  | Some a, Some b ->
      check_int (name ^ " lookups") a.Engine.cr_lookups b.Engine.cr_lookups;
      check_int (name ^ " hits") a.Engine.cr_hits b.Engine.cr_hits;
      check_int (name ^ " misses") a.Engine.cr_misses b.Engine.cr_misses;
      check_exact_float (name ^ " hit_rate") a.Engine.cr_hit_rate b.Engine.cr_hit_rate;
      check_int (name ^ " hit_bytes") a.Engine.cr_hit_bytes b.Engine.cr_hit_bytes;
      check_int (name ^ " insertions") a.Engine.cr_insertions b.Engine.cr_insertions;
      check_int (name ^ " evictions") a.Engine.cr_evictions b.Engine.cr_evictions;
      check_int (name ^ " dirty_evictions") a.Engine.cr_dirty_evictions b.Engine.cr_dirty_evictions;
      check_int (name ^ " writeback") a.Engine.cr_writeback_bytes b.Engine.cr_writeback_bytes;
      check_int (name ^ " prefetched") a.Engine.cr_prefetched_pages b.Engine.cr_prefetched_pages;
      check_int (name ^ " invalidations") a.Engine.cr_invalidations b.Engine.cr_invalidations;
      check_bool (name ^ " per_type") true (a.Engine.cr_per_type = b.Engine.cr_per_type)
  | _ -> Alcotest.failf "%s: cache report presence differs" name

let check_sharded_equal name (a : Experiment.result) (b : Experiment.result) =
  check_tp_equal (name ^ " app") a.Experiment.application b.Experiment.application;
  check_tp_equal (name ^ " seq") a.Experiment.sequential b.Experiment.sequential;
  check_fault_equal (name ^ " fault") a.Experiment.fault b.Experiment.fault;
  check_cache_equal (name ^ " cache") a.Experiment.cache b.Experiment.cache;
  check_int (name ^ " slices") a.Experiment.slices b.Experiment.slices

(* ------------------------------------------------------------------ *)
(* Partition invariance: shards 1 / 2 / 4 / 8 bit-identical            *)
(* ------------------------------------------------------------------ *)

(* (policy, workload) -> (app pct_of_max, seq pct_of_max), captured
   from run_sharded ~shards:1 under sharded_config
   (shard_slices = 4).  Hex float literals: exact. *)
let sharded_goldens =
  [
    (("buddy", "MINI-TS"), (0x1.26888df72f48p+5, 0x1.f45b7bce6922bp+5));
    (("restricted", "MINI-TS"), (0x1.f66d9e9dcde86p+4, 0x1.257c16d227635p+5));
    (("extent", "MINI-TS"), (0x1.81339a88d176p+5, 0x1.46902fb78cde3p+5));
    (("fixed", "MINI-TS"), (0x1.f082b1a10f1cp+2, 0x1.a3b54fc06626dp+2));
    (("lfs", "MINI-TS"), (0x1.5a16bcda1170cp+5, 0x1.bb2ef7e21bb4ep+5));
    (("buddy", "MINI-TP"), (0x1.14c4601bbd692p+5, 0x1.8a4a97d47fcbcp+6));
    (("restricted", "MINI-TP"), (0x1.b7d8adb66df61p+4, 0x1.8d05ffe321cd2p+6));
    (("extent", "MINI-TP"), (0x1.244a9fa1fb368p+5, 0x1.8889e27b9a7f1p+6));
    (("fixed", "MINI-TP"), (0x1.076eefb65f982p+4, 0x1.b3cd78ff5a8fep+4));
    (("lfs", "MINI-TP"), (0x1.bfb14e59b2c12p+4, 0x1.8cbd3f066571ep+5));
    (("buddy", "MINI-SC"), (0x1.794cda275bb83p+6, 0x1.8e1a03c98ba9dp+6));
    (("restricted", "MINI-SC"), (0x1.749d610a98423p+6, 0x1.892f057304ff9p+6));
    (("extent", "MINI-SC"), (0x1.79a3f94d8c7fcp+6, 0x1.8ccf2a5b166edp+6));
    (("fixed", "MINI-SC"), (0x1.aa139ffc061bep+4, 0x1.ae1c3c479164fp+4));
    (("lfs", "MINI-SC"), (0x1.76bc6c25c1009p+6, 0x1.8e193b96a66e6p+6));
  ]

let test_shard_count_invariance () =
  List.iter
    (fun w ->
      List.iter
        (fun (pname, spec) ->
          let cell = Printf.sprintf "%s/%s" pname w.Workload.name in
          let base = run_sharded ~config:sharded_config ~shards:1 spec w in
          check_int (cell ^ " slices") 4 base.Experiment.slices;
          check_int (cell ^ " shards recorded") 1 base.Experiment.shards;
          check_bool (cell ^ " no sink unless instrumented") true (base.Experiment.sink = None);
          let ga, gs = List.assoc (pname, w.Workload.name) sharded_goldens in
          check_exact_float (cell ^ " app pct (vs golden)") ga
            base.Experiment.application.Engine.pct_of_max;
          check_exact_float (cell ^ " seq pct (vs golden)") gs
            base.Experiment.sequential.Engine.pct_of_max;
          List.iter
            (fun shards ->
              let r = run_sharded ~config:sharded_config ~shards spec w in
              check_int (cell ^ " shards recorded") shards r.Experiment.shards;
              check_sharded_equal (Printf.sprintf "%s shards=%d" cell shards) base r)
            [ 2; 4; 8 ])
        (policies w))
    [ mini_ts; mini_tp; mini_sc ]

(* ------------------------------------------------------------------ *)
(* shard_slices = 1: the sharded entry point IS the serial path        *)
(* ------------------------------------------------------------------ *)

let test_serial_equivalence () =
  let config = { sharded_config with Engine.shard_slices = 1 } in
  List.iter
    (fun (w, pname) ->
      let spec = List.assoc pname (policies w) in
      let cell = Printf.sprintf "%s/%s slices=1" pname w.Workload.name in
      let unsharded = (Experiment.run ~config Experiment.default_plan spec w).(0) in
      let app = unsharded.Experiment.application and seq = unsharded.Experiment.sequential in
      (* at any execution width: one slice just means one task *)
      List.iter
        (fun shards ->
          let r = run_sharded ~config ~shards spec w in
          let name = Printf.sprintf "%s shards=%d" cell shards in
          check_int (name ^ " slices") 1 r.Experiment.slices;
          check_tp_equal (name ^ " app (vs unsharded)") app r.Experiment.application;
          check_tp_equal (name ^ " seq (vs unsharded)") seq r.Experiment.sequential)
        [ 1; 4 ])
    [ (mini_ts, "restricted"); (mini_sc, "fixed"); (mini_tp, "lfs") ]

(* ------------------------------------------------------------------ *)
(* Instrumented runs: merged sink JSON identical at any width          *)
(* ------------------------------------------------------------------ *)

let sink_json (r : Experiment.result) =
  match r.Experiment.sink with
  | None -> Alcotest.fail "expected a merged sink"
  | Some sink -> C.Obs.Json.to_string (C.Sink.to_json sink)

let test_instrumented_invariance () =
  let spec = List.assoc "restricted" (policies mini_ts) in
  let run shards =
    run_sharded
      ~plan:{ Experiment.default_plan with instrument = true; trace = true }
      ~config:sharded_config ~shards spec mini_ts
  in
  let a = run 1 and b = run 4 in
  check_sharded_equal "instrumented shards=4 vs shards=1" a b;
  check_bool "sink traces" true (C.Sink.tracing (Option.get a.Experiment.sink));
  check_bool "sink JSON identical" true (String.equal (sink_json a) (sink_json b));
  (* and instrumentation never changes simulated results *)
  let plain = run_sharded ~config:sharded_config ~shards:1 spec mini_ts in
  check_sharded_equal "instrumented vs plain" plain a

(* ------------------------------------------------------------------ *)
(* Cache counters merge deterministically                              *)
(* ------------------------------------------------------------------ *)

let test_cached_invariance () =
  let config = { sharded_config with Engine.cache = Some (C.Cache.config ~mb:4 ()) } in
  let spec = List.assoc "fixed" (policies mini_tp) in
  let a = run_sharded ~config ~shards:1 spec mini_tp in
  let b = run_sharded ~config ~shards:4 spec mini_tp in
  check_sharded_equal "cached shards=4 vs shards=1" a b;
  match a.Experiment.cache with
  | None -> Alcotest.fail "expected a merged cache report"
  | Some c ->
      check_int "lookups = hits + misses" c.Engine.cr_lookups (c.Engine.cr_hits + c.Engine.cr_misses);
      check_bool "cache saw traffic" true (c.Engine.cr_lookups > 0);
      check_bool "per-type counters present" true (Array.length c.Engine.cr_per_type > 0)

(* ------------------------------------------------------------------ *)
(* QCheck: invariance at arbitrary execution widths                    *)
(* ------------------------------------------------------------------ *)

let prop_any_width_invariant =
  let baseline = lazy (run_sharded ~config:sharded_config ~shards:1 edge_spec mini_sc) in
  QCheck.Test.make ~name:"any shards width reproduces the shards=1 report" ~count:6
    QCheck.(int_range 1 12)
    (fun shards ->
      let base = Lazy.force baseline in
      let r = run_sharded ~config:sharded_config ~shards edge_spec mini_sc in
      r.Experiment.application = base.Experiment.application
      && r.Experiment.sequential = base.Experiment.sequential
      && r.Experiment.fault.Engine.drive_states = base.Experiment.fault.Engine.drive_states
      && r.Experiment.shards = shards)

(* ------------------------------------------------------------------ *)
(* Hot-path allocation budget (queued / SSTF path)                     *)
(* ------------------------------------------------------------------ *)

let test_hot_path_allocation_budget () =
  let config =
    {
      sharded_config with
      Engine.disks = 2;
      scheduler = C.Sched_policy.Sstf;
      (* a full minute of simulated measurement so the per-op average
         amortizes checkpoint sweeps and startup noise *)
      max_measure_ms = 60_000.;
    }
  in
  let engine = Experiment.make_engine ~config edge_spec mini_tp in
  Engine.fill_to_lower_bound engine;
  Gc.full_major ();
  let before = Gc.minor_words () in
  let report = Engine.run_application_test engine in
  let words = Gc.minor_words () -. before in
  check_bool "run did real work" true (report.Engine.io_ops > 500);
  let per_op = words /. float_of_int report.Engine.io_ops in
  (* The de-allocated engine measures ~590 minor words per simulated op
     on this cell — what remains is inherent to the model (per-op extent
     lists, dispatch-queue request records, hashtable waiter entries,
     non-flambda float boxing), not per-event garbage: the event loop
     itself runs on pooled records and preallocated scratch.  The budget
     has ~50% headroom; reintroducing per-event closures, service
     records or in-flight list cons blows well past it. *)
  if per_op > 900. then
    Alcotest.failf "hot path allocates %.1f minor words per op (budget 900)" per_op

(* ------------------------------------------------------------------ *)
(* Hot-path allocation budget (default synchronous FCFS path)          *)
(* ------------------------------------------------------------------ *)

(* Restricted buddy on the default 8-drive striped array, FCFS, no
   cache, no sink: the path the paper's figures run.  Minor words per
   application-test I/O, over a fixed two-minute horizon. *)
let test_fcfs_allocation_budget () =
  let config =
    {
      Engine.default_config with
      seed = 7;
      max_measure_ms = 120_000.;
      stable_windows = 1_000;
    }
  in
  let spec = List.assoc "restricted" (policies mini_tp) in
  let engine = Experiment.make_engine ~config spec mini_tp in
  Engine.fill_to_lower_bound engine;
  Gc.full_major ();
  let before = Gc.minor_words () in
  let report = Engine.run_application_test engine in
  let words = Gc.minor_words () -. before in
  check_bool "run did real work" true (report.Engine.io_ops > 5_000);
  let per_op = words /. float_of_int report.Engine.io_ops in
  (* ~33 words per I/O on this cell (~9.9k I/Os); ~311 before the RNG
     kept its state unboxed, the drives their clocks in float arrays and
     extents reached the array as int pairs in reused buffers.  What
     remains is the engine's per-operation bookkeeping (outcome values,
     think-time and event-heap floats).  The budget has ~50% headroom; a
     boxed RNG word, a float clock in a mixed record or a per-I/O extent
     list blows well past it. *)
  if per_op > 50. then
    Alcotest.failf "FCFS path allocates %.1f minor words per I/O (budget 50)" per_op

(* ------------------------------------------------------------------ *)
(* Alloc-only allocation budget (extent first fit, shattered volume)   *)
(* ------------------------------------------------------------------ *)

(* Minor words per extent claimed or released, over ensure/shrink/delete
   churn on a volume whose free space is shattered into thousands of
   pieces.  One-extent files fill most of the volume and every other one
   is deleted; the survivors stay put, so the holes between them cannot
   coalesce away while a separate set of files churns through them.
   Only the policy calls are measured: each round first grows files,
   then shrinks or deletes them, and counts the extents each phase moved
   from the files' extent counts, read outside the measured spans.
   Re-creating deleted files (an RNG draw) is not measured. *)
let test_alloc_only_allocation_budget () =
  let p =
    C.Extent_alloc.create
      (C.Extent_alloc.config ~range_means_bytes:[ 8 * 1024 ] ())
      ~total_units:(1 lsl 19) ~rng:(C.Rng.create ~seed:1)
  in
  let pinned = 30_000 and churned = 2_000 in
  for file = 0 to pinned - 1 do
    p.C.Policy.create_file ~file ~hint:8;
    ignore (p.C.Policy.ensure ~file ~target:1)
  done;
  for file = 0 to pinned - 1 do
    if file mod 2 = 1 then p.C.Policy.delete ~file
  done;
  let churn_file i = pinned + i in
  for i = 0 to churned - 1 do
    p.C.Policy.create_file ~file:(churn_file i) ~hint:8
  done;
  let free_extents () = List.fold_left (fun acc (_, c) -> acc + c) 0 (p.C.Policy.free_hist ()) in
  check_bool "shattered to >= 5k free extents" true (free_extents () >= 5_000);
  let live () =
    let n = ref 0 in
    for i = 0 to churned - 1 do
      let file = churn_file i in
      if p.C.Policy.file_exists ~file then n := !n + p.C.Policy.extent_count ~file
    done;
    !n
  in
  (* A cheap LCG picks files: the measured loops allocate nothing of
     their own. *)
  let state = ref 12345 in
  let pick () =
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    !state
  in
  let picks = Array.make churned 0 and targets = Array.make churned 0 in
  let words = ref 0. and moved = ref 0 in
  let measure f =
    let before = live () in
    let w0 = Gc.minor_words () in
    f ();
    words := !words +. (Gc.minor_words () -. w0);
    moved := !moved + abs (live () - before)
  in
  for round = 1 to 10 do
    for i = 0 to churned - 1 do
      picks.(i) <- churn_file (pick () mod churned);
      targets.(i) <- p.C.Policy.allocated_units ~file:picks.(i) + 1 + (pick () mod 32)
    done;
    measure (fun () ->
        for i = 0 to churned - 1 do
          ignore (p.C.Policy.ensure ~file:picks.(i) ~target:targets.(i))
        done);
    for i = 0 to churned - 1 do
      picks.(i) <- churn_file (pick () mod churned);
      targets.(i) <- p.C.Policy.allocated_units ~file:picks.(i) / 2
    done;
    measure (fun () ->
        for i = 0 to churned - 1 do
          let file = picks.(i) in
          (* a file picked twice in one batch may already be gone *)
          if p.C.Policy.file_exists ~file then
            if (i + round) mod 4 = 0 then p.C.Policy.delete ~file
            else p.C.Policy.shrink_to ~file ~target:targets.(i)
        done);
    for i = 0 to churned - 1 do
      let file = churn_file i in
      if not (p.C.Policy.file_exists ~file) then p.C.Policy.create_file ~file ~hint:8
    done;
    check_bool "still shattered" true (free_extents () >= 5_000)
  done;
  check_bool "churn moved many extents" true (!moved > 20_000);
  let per_extent = !words /. float_of_int !moved in
  (* The array-backed free-extent index allocates nothing per claim or
     release; what remains (~15 words) is the per-file extent list,
     closures and option results.  The persistent tree it replaced cost
     ~260 words per extent on this churn. *)
  if per_extent > 48. then
    Alcotest.failf "extent churn allocates %.1f minor words per extent (budget 48)" per_extent

(* ------------------------------------------------------------------ *)
(* Validation and partition arithmetic                                 *)
(* ------------------------------------------------------------------ *)

let raises_invalid f = match f () with _ -> false | exception Invalid_argument _ -> true

let test_validate_shards () =
  Engine.validate_config ~shards:1 sharded_config;
  Engine.validate_config ~shards:64 sharded_config;
  check_bool "shards=0 rejected" true
    (raises_invalid (fun () -> Engine.validate_config ~shards:0 sharded_config));
  check_bool "negative shards rejected" true
    (raises_invalid (fun () -> Engine.validate_config ~shards:(-2) sharded_config));
  check_bool "shard_slices=0 rejected" true
    (raises_invalid (fun () ->
         Engine.validate_config { sharded_config with Engine.shard_slices = 0 }));
  check_bool "sharded run with shards=0 rejected" true
    (raises_invalid (fun () ->
         run_sharded ~config:sharded_config ~shards:0 edge_spec mini_sc));
  check_bool "slices > disks rejected" true
    (raises_invalid (fun () ->
         run_sharded
           ~config:{ sharded_config with Engine.disks = 2; shard_slices = 4 }
           ~shards:1 edge_spec mini_sc))

let test_partition_arithmetic () =
  let parts = Workload.partition mini_ts ~weights:[| 1; 1; 1; 1 |] in
  check_int "slice count" 4 (Array.length parts);
  let total field =
    Array.fold_left
      (fun acc (w : Workload.t) ->
        List.fold_left (fun acc ft -> acc + field ft) acc w.Workload.types)
      0 parts
  in
  check_int "files conserved" 300 (total (fun ft -> ft.File_type.count));
  check_int "users conserved" 9 (total (fun ft -> ft.File_type.users));
  Array.iter (fun w -> Workload.validate w) parts;
  check_bool "weights [|w|] is the identity" true
    (Workload.partition mini_ts ~weights:[| 3 |] = [| mini_ts |]);
  check_bool "non-positive weight rejected" true
    (raises_invalid (fun () -> Workload.partition mini_ts ~weights:[| 1; 0 |]));
  check_bool "too-small workload rejected" true
    (raises_invalid (fun () -> Workload.partition mini_sc ~weights:[| 1; 1; 1; 1; 1 |]))

(* ------------------------------------------------------------------ *)

let capture_goldens () =
  (* regenerate the [sharded_goldens] table (see header comment) *)
  List.iter
    (fun w ->
      List.iter
        (fun (pname, spec) ->
          let r = run_sharded ~config:sharded_config ~shards:1 spec w in
          Printf.printf "    ((%S, %S), (%h, %h));\n" pname w.Workload.name
            r.Experiment.application.Engine.pct_of_max r.Experiment.sequential.Engine.pct_of_max)
        (policies w))
    [ mini_ts; mini_tp; mini_sc ]

let () =
  if Sys.getenv_opt "ROFS_GOLDEN_CAPTURE" <> None then capture_goldens ()
  else
    let quick name f = Alcotest.test_case name `Quick f in
    let slow name f = Alcotest.test_case name `Slow f in
    Alcotest.run "rofs_speed"
      [
        ( "shard invariance",
          [
            slow "shards 1/2/4/8 bit-identical + frozen goldens (all cells)"
              test_shard_count_invariance;
            QCheck_alcotest.to_alcotest prop_any_width_invariant;
          ] );
        ( "serial equivalence",
          [ slow "shard_slices=1 equals run_throughput" test_serial_equivalence ] );
        ( "instrumentation",
          [
            slow "merged sink JSON invariant under width" test_instrumented_invariance;
            slow "cache counters merge deterministically" test_cached_invariance;
          ] );
        ( "hot path",
          [
            slow "minor words per op bounded" test_hot_path_allocation_budget;
            slow "FCFS minor words per op bounded" test_fcfs_allocation_budget;
            slow "alloc-only minor words per extent bounded" test_alloc_only_allocation_budget;
          ] );
        ( "validation",
          [
            quick "shards / shard_slices validation" test_validate_shards;
            quick "partition arithmetic" test_partition_arithmetic;
          ] );
      ]
