(* Quickstart: build the paper's default system — an 8-disk striped
   array of CDC Wren IVs with the restricted buddy allocator — run the
   fragmentation test and the two throughput tests on the supercomputer
   workload, and print the headline numbers. *)

let () =
  let spec =
    Core.Experiment.Restricted
      (Core.Restricted_buddy.config
         ~block_sizes_bytes:(Core.Restricted_buddy.paper_block_sizes 5)
         ())
  in
  let workload = Core.Workload.sc in
  Printf.printf "workload: %s (%s)\n" workload.Core.Workload.name
    workload.Core.Workload.description;

  let alloc = Core.Experiment.run_allocation spec workload in
  Printf.printf "fragmentation at first failure: internal %.1f%%, external %.1f%% (%d ops)\n"
    (100. *. alloc.Core.Engine.internal_frag)
    (100. *. alloc.Core.Engine.external_frag)
    alloc.Core.Engine.alloc_ops;

  let r = (Core.Experiment.run Core.Experiment.default_plan spec workload).(0) in
  let app = r.Core.Experiment.application and seq = r.Core.Experiment.sequential in
  Printf.printf "application throughput: %5.1f%% of max (%.2f MB/s, %d I/Os, %s)\n"
    app.Core.Engine.pct_of_max
    (app.Core.Engine.bytes_per_ms *. 1000. /. 1048576.)
    app.Core.Engine.io_ops
    (if app.Core.Engine.stabilized then "stabilized" else "time-capped");
  Printf.printf "sequential  throughput: %5.1f%% of max (%.2f MB/s, %d I/Os, %s)\n"
    seq.Core.Engine.pct_of_max
    (seq.Core.Engine.bytes_per_ms *. 1000. /. 1048576.)
    seq.Core.Engine.io_ops
    (if seq.Core.Engine.stabilized then "stabilized" else "time-capped")
