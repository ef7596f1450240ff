(* End-to-end integration tests: the paper's qualitative claims must
   hold on (scaled) runs of the real pipeline — policies compared on the
   same workload, fragmentation ordering, throughput ordering.  These
   are the "shape" assertions the reproduction is judged by; they use a
   reduced workload so the whole file runs in seconds. *)

module C = Core
module Engine = C.Engine
module Experiment = C.Experiment
module Workload = C.Workload
module File_type = C.File_type

let check_bool = Alcotest.(check bool)

(* One unsharded throughput run: (application, sequential) reports. *)
let throughput ~config spec w =
  let r = (Experiment.run ~config Experiment.default_plan spec w).(0) in
  (r.Experiment.application, r.Experiment.sequential)

(* A miniature SC-like workload: one big file, a few medium, sequential
   bursts. *)
let mini_sc =
  {
    Workload.name = "MINI-SC";
    description = "scaled supercomputer workload";
    types =
      [
        {
          File_type.name = "big";
          count = 2;
          users = 2;
          process_time_ms = 30.;
          hit_freq_ms = 50.;
          rw_mean_bytes = 512 * 1024;
          rw_dev_bytes = 0;
          alloc_hint_bytes = 16 * 1024 * 1024;
          truncate_bytes = 512 * 1024;
          initial_mean_bytes = 400 * 1024 * 1024;
          initial_dev_bytes = 0;
          read_pct = 60;
          write_pct = 30;
          extend_pct = 8;
          delete_pct_of_deallocs = 0;
          pattern = File_type.Sequential;
        };
        {
          File_type.name = "mid";
          count = 10;
          users = 4;
          process_time_ms = 30.;
          hit_freq_ms = 50.;
          rw_mean_bytes = 512 * 1024;
          rw_dev_bytes = 0;
          alloc_hint_bytes = 16 * 1024 * 1024;
          truncate_bytes = 512 * 1024;
          initial_mean_bytes = 100 * 1024 * 1024;
          initial_dev_bytes = 20 * 1024 * 1024;
          read_pct = 60;
          write_pct = 30;
          extend_pct = 8;
          delete_pct_of_deallocs = 0;
          pattern = File_type.Sequential;
        };
      ];
  }

(* A miniature TS-like workload: many small files, churn. *)
let mini_ts =
  {
    Workload.name = "MINI-TS";
    description = "scaled time-sharing workload";
    types =
      [
        {
          File_type.name = "small";
          count = 3000;
          users = 8;
          process_time_ms = 50.;
          hit_freq_ms = 100.;
          rw_mean_bytes = 4 * 1024;
          rw_dev_bytes = 2 * 1024;
          alloc_hint_bytes = 4 * 1024;
          truncate_bytes = 4 * 1024;
          initial_mean_bytes = 8 * 1024;
          initial_dev_bytes = 4 * 1024;
          read_pct = 50;
          write_pct = 15;
          extend_pct = 15;
          delete_pct_of_deallocs = 80;
          pattern = File_type.Whole_file;
        };
        {
          File_type.name = "large";
          count = 2500;
          users = 4;
          process_time_ms = 50.;
          hit_freq_ms = 100.;
          rw_mean_bytes = 8 * 1024;
          rw_dev_bytes = 4 * 1024;
          alloc_hint_bytes = 8 * 1024;
          truncate_bytes = 16 * 1024;
          initial_mean_bytes = 96 * 1024;
          initial_dev_bytes = 48 * 1024;
          read_pct = 60;
          write_pct = 15;
          extend_pct = 15;
          delete_pct_of_deallocs = 50;
          pattern = File_type.Random_access;
        };
      ];
  }

(* Fast engine settings; one disk's worth of files keeps runs short. *)
let config =
  {
    Engine.default_config with
    Engine.max_measure_ms = 180_000.;
    warmup_checkpoints = 2;
    max_alloc_ops = 2_000_000;
    lower_bound = 0.80;
    upper_bound = 0.90;
  }

let buddy = Experiment.Buddy C.Buddy.default_config

let rbuddy n =
  Experiment.Restricted
    (C.Restricted_buddy.config ~block_sizes_bytes:(C.Restricted_buddy.paper_block_sizes n) ())

let extent w n =
  Experiment.Extent (C.Extent_alloc.config ~range_means_bytes:(Workload.extent_ranges w n) ())

let fixed bytes = Experiment.Fixed (C.Fixed_block.config ~block_bytes:bytes ())

let test_buddy_worst_internal_fragmentation () =
  (* Table 3 vs Figures 1/4: the buddy policy's internal fragmentation
     dwarfs the restricted buddy's and the extent policy's. *)
  let frag spec = (Experiment.run_allocation ~config spec mini_sc).Engine.internal_frag in
  let b = frag buddy and r = frag (rbuddy 5) and e = frag (extent Workload.sc 3) in
  check_bool (Printf.sprintf "buddy %.3f > restricted %.3f" b r) true (b > r +. 0.05);
  check_bool (Printf.sprintf "buddy %.3f > extent %.3f" b e) true (b > e +. 0.05)

let test_multiblock_fragmentation_under_six_percent () =
  (* Figure 1: none of the restricted buddy configurations show
     fragmentation greater than 6%. *)
  List.iter
    (fun n ->
      let r = Experiment.run_allocation ~config (rbuddy n) mini_ts in
      check_bool
        (Printf.sprintf "%d sizes: internal %.3f under 8%%" n r.Engine.internal_frag)
        true (r.Engine.internal_frag < 0.08);
      check_bool
        (Printf.sprintf "%d sizes: external %.3f under 35%%" n r.Engine.external_frag)
        true (r.Engine.external_frag < 0.35))
    [ 2; 3 ]

let test_extent_fragmentation_small () =
  (* Figure 4: neither internal nor external fragmentation surpasses
     ~5% for the extent policies. *)
  List.iter
    (fun fit ->
      let spec =
        Experiment.Extent
          (C.Extent_alloc.config ~fit ~range_means_bytes:(Workload.extent_ranges Workload.sc 3) ())
      in
      let r = Experiment.run_allocation ~config spec mini_sc in
      check_bool
        (Printf.sprintf "internal %.3f small" r.Engine.internal_frag)
        true (r.Engine.internal_frag < 0.10);
      check_bool
        (Printf.sprintf "external %.3f small" r.Engine.external_frag)
        true (r.Engine.external_frag < 0.10))
    [ C.Extent_alloc.First_fit; C.Extent_alloc.Best_fit ]

let test_sequential_multiblock_beats_fixed () =
  (* Figure 6a: on large-file workloads the multiblock policies utilize
     nearly the full bandwidth while the fixed-block system does not. *)
  let _, seq_rb = throughput ~config (rbuddy 5) mini_sc in
  let _, seq_fx = throughput ~config (fixed (16 * 1024)) mini_sc in
  check_bool
    (Printf.sprintf "restricted %.1f%% > fixed %.1f%% + 20" seq_rb.Engine.pct_of_max
       seq_fx.Engine.pct_of_max)
    true
    (seq_rb.Engine.pct_of_max > seq_fx.Engine.pct_of_max +. 20.);
  check_bool "multiblock near full bandwidth" true (seq_rb.Engine.pct_of_max > 75.)

let test_small_file_workload_low_utilization () =
  (* Figure 6: in the time-sharing environment no policy pushes the
     system far; small files dominate. *)
  let app, seq = throughput ~config (rbuddy 3) mini_ts in
  check_bool (Printf.sprintf "TS app %.1f%% modest" app.Engine.pct_of_max) true
    (app.Engine.pct_of_max < 40.);
  check_bool (Printf.sprintf "TS seq %.1f%% modest" seq.Engine.pct_of_max) true
    (seq.Engine.pct_of_max < 50.)

let test_buddy_few_extents_per_file () =
  (* Doubling keeps extent counts logarithmic: a few hundred MB in tens
     of extents, versus thousands of fixed blocks. *)
  let engine = Experiment.make_engine ~config buddy mini_sc in
  let v = Engine.volume engine in
  let files = C.Volume.live_files v in
  List.iter
    (fun f ->
      let extents = C.Volume.extent_count v ~file:f in
      check_bool (Printf.sprintf "file %d: %d extents < 64" f extents) true (extents < 64))
    files

let () =
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "rofs_integration"
    [
      ( "paper shape",
        [
          slow "buddy has the worst internal fragmentation" test_buddy_worst_internal_fragmentation;
          slow "restricted buddy fragmentation stays small" test_multiblock_fragmentation_under_six_percent;
          slow "extent fragmentation stays small" test_extent_fragmentation_small;
          slow "multiblock beats fixed sequentially" test_sequential_multiblock_beats_fixed;
          slow "small-file workload stays modest" test_small_file_workload_low_utilization;
          slow "buddy uses few extents" test_buddy_few_extents_per_file;
        ] );
    ]
