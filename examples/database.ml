(* Database scenario: build a custom transaction-processing workload
   with the public API (rather than using the canned Workload.tp) and
   measure how the extent-based policy serves it, the way a DBMS on a
   raw partition would want: large relations in few large extents.

   Demonstrates: constructing File_type values, running the throughput
   pair, and reading the per-file extent statistics the paper's Table 4
   reports. *)

module C = Core

let kib = 1024
let mib = 1024 * kib

(* A small OLTP shop: four 300M relations, a 20M write-ahead log. *)
let workload =
  {
    C.Workload.name = "OLTP";
    description = "custom transaction-processing workload";
    types =
      [
        {
          C.File_type.name = "relation";
          count = 4;
          users = 24;
          process_time_ms = 8.;
          hit_freq_ms = 20.;
          rw_mean_bytes = 16 * kib;
          rw_dev_bytes = 0;
          alloc_hint_bytes = 16 * mib;
          truncate_bytes = 32 * kib;
          initial_mean_bytes = 300 * mib;
          initial_dev_bytes = 30 * mib;
          read_pct = 55;
          write_pct = 35;
          extend_pct = 8;
          delete_pct_of_deallocs = 0;
          pattern = C.File_type.Random_access;
        };
        {
          C.File_type.name = "wal";
          count = 1;
          users = 2;
          process_time_ms = 5.;
          hit_freq_ms = 10.;
          rw_mean_bytes = 8 * kib;
          rw_dev_bytes = 4 * kib;
          alloc_hint_bytes = 512 * kib;
          truncate_bytes = 512 * kib;
          initial_mean_bytes = 20 * mib;
          initial_dev_bytes = 4 * mib;
          read_pct = 3;
          write_pct = 0;
          extend_pct = 95;
          delete_pct_of_deallocs = 0;
          pattern = C.File_type.Sequential;
        };
      ];
  }

let () =
  C.Workload.validate workload;
  Printf.printf "workload %s: %d file types, %d users, %s initial data\n\n"
    workload.C.Workload.name
    (List.length workload.C.Workload.types)
    (C.Workload.total_users workload)
    (C.Units.to_string (C.Workload.initial_bytes workload));

  let table =
    C.Table.create ~header:[ "fit"; "application"; "sequential"; "mean extents/file" ]
  in
  List.iter
    (fun (label, fit) ->
      let spec =
        C.Experiment.Extent
          (C.Extent_alloc.config ~fit ~range_means_bytes:[ 512 * kib; mib; 16 * mib ] ())
      in
      let r = (C.Experiment.run C.Experiment.default_plan spec workload).(0) in
      let app = r.C.Experiment.application and seq = r.C.Experiment.sequential in
      C.Table.add_row table
        [
          label;
          Printf.sprintf "%.1f%% of max" app.C.Engine.pct_of_max;
          Printf.sprintf "%.1f%% of max" seq.C.Engine.pct_of_max;
          Printf.sprintf "%.1f" seq.C.Engine.mean_extents_per_file;
        ])
    [ ("first fit", C.Extent_alloc.First_fit); ("best fit", C.Extent_alloc.Best_fit) ];
  C.Table.print ~title:"Extent-based allocation on the OLTP workload" table
