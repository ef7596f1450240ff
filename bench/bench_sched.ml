(* Per-drive scheduler ablation: the paper's array serves each drive's
   queue FCFS (so did this reproduction's seed, via precomputed
   busy-until clocks).  Real Wren-IV-era controllers reordered pending
   requests to cut seek time; this bench quantifies what that is worth
   by running the selected restricted-buddy configuration under every
   workload with each of the four policies in lib/sched.

   FCFS rows use the engine's synchronous path and therefore reproduce
   the seed's numbers exactly; the other rows exercise the
   dispatch-queue model, where requests arriving while a drive is busy
   queue up and the policy picks which one the idle arm serves next.
   The interesting regime is TP — many users issuing small random
   accesses build real per-drive queues — which is also where the
   reproduction sits furthest below the paper. *)

module C = Core

let run () =
  Common.heading "Ablation: per-drive I/O scheduling (restricted buddy, 5 sizes)";
  let t =
    C.Table.create ~header:[ "scheduler"; "workload"; "application"; "sequential"; "app io ops" ]
  in
  let cells =
    List.concat_map
      (fun sched -> List.map (fun w -> (sched, w)) Common.workloads)
      C.Sched_policy.all
  in
  let rows =
    Common.par_map
      (fun (sched, (w : C.Workload.t)) ->
        let config = { !Common.config with C.Engine.scheduler = sched } in
        let app, seq = Common.run_pair ~config Common.rbuddy_selected w in
        [
          C.Sched_policy.name sched;
          w.C.Workload.name;
          Common.pct_points app.C.Engine.pct_of_max;
          Common.pct_points seq.C.Engine.pct_of_max;
          string_of_int app.C.Engine.io_ops;
        ])
      cells
  in
  List.iter (C.Table.add_row t) rows;
  Common.emit ~title:"Scheduler ablation: throughput as % of maximum" t;
  Common.note
    [
      "";
      "FCFS is the seed model (and the paper's); the reordering policies";
      "only differ once per-drive queues form, so sequential columns move";
      "little while the queue-heavy TP application column gains the most.";
    ]
