(* Supercomputer scenario: large sequential bursts over the disk array.

   Demonstrates the knobs the paper's Section 6 flags for further
   investigation: the stripe-unit parameter and the redundancy scheme.
   The SC workload is run under the restricted buddy policy while the
   array configuration varies — striping granularity first, then plain
   striping vs RAID-5 vs mirroring. *)

module C = Core

let kib = 1024

let spec =
  C.Experiment.Restricted
    (C.Restricted_buddy.config ~block_sizes_bytes:(C.Restricted_buddy.paper_block_sizes 5) ())

let run_with ~array_config =
  let config = { C.Engine.default_config with C.Engine.array_config } in
  let r = (C.Experiment.run ~config C.Experiment.default_plan spec C.Workload.sc).(0) in
  (r.C.Experiment.application, r.C.Experiment.sequential)

let () =
  let stripe_table = C.Table.create ~header:[ "stripe unit"; "application"; "sequential" ] in
  List.iter
    (fun unit_bytes ->
      let app, seq =
        run_with ~array_config:(fun _ -> C.Array_model.Striped { stripe_unit = unit_bytes })
      in
      C.Table.add_row stripe_table
        [
          C.Units.to_string unit_bytes;
          Printf.sprintf "%.1f%%" app.C.Engine.pct_of_max;
          Printf.sprintf "%.1f%%" seq.C.Engine.pct_of_max;
        ])
    [ 8 * kib; 24 * kib; 96 * kib; 512 * kib ];
  C.Table.print ~title:"SC workload: stripe-unit sensitivity (restricted buddy)" stripe_table;

  let layout_table =
    C.Table.create ~header:[ "layout"; "data capacity"; "application"; "sequential" ]
  in
  let layouts =
    [
      ("striped", C.Array_model.Striped { stripe_unit = 24 * kib });
      ("RAID-5", C.Array_model.Raid5 { stripe_unit = 24 * kib });
      ("mirrored", C.Array_model.Mirrored { stripe_unit = 24 * kib });
    ]
  in
  List.iter
    (fun (name, layout) ->
      let probe = C.Array_model.create ~disks:8 layout in
      let app, seq = run_with ~array_config:(fun _ -> layout) in
      C.Table.add_row layout_table
        [
          name;
          C.Units.to_string (C.Array_model.capacity_bytes probe);
          Printf.sprintf "%.1f%%" app.C.Engine.pct_of_max;
          Printf.sprintf "%.1f%%" seq.C.Engine.pct_of_max;
        ])
    layouts;
  C.Table.print ~title:"SC workload: redundancy schemes (8 disks)" layout_table;
  print_newline ();
  print_endline
    "Note: percentages are relative to each layout's own data bandwidth;\n\
     RAID-5 additionally pays read-modify-write on every small write."
