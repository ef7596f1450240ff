(* One benchmark sample: runs one workload once in this process and
   prints one JSON line with its host timings, GC counters, simulated
   outputs, failed invariants and (with --trace) per-layer figures.
   perfbench/run.py starts one process per sample, so the GC figures
   are the sample's own.

   Every simulator call is a public [Core] function timed from outside.
   With --trace the allocation policy's closure record is wrapped before
   it reaches [Engine.create], so allocator self time is measured
   without changing the library; the wrapper only observes, and run.py
   checks that the traced outputs equal the untraced ones bit for bit.

     sample.exe --workload ts-aged|tp-fcfs|tp-queued-obs --seed N [--trace] *)

module C = Core
module E = C.Engine
module J = C.Obs.Json

let now = Unix.gettimeofday
let origin = now ()

(* Phases, in span order.  [ckpt] is not a span of its own: allocator
   calls made from inside the checkpoint hook are charged to it, so the
   engine remainder of a phase is its wall time minus its allocator and
   checkpoint self time with nothing subtracted twice. *)
let phases = [| "setup"; "fill"; "age"; "application"; "sequential"; "check"; "ckpt" |]
let p_setup, p_fill, p_age, p_app, p_seq, p_check, p_ckpt = (0, 1, 2, 3, 4, 5, 6)
let measured_phases = [ p_setup; p_fill; p_age; p_app; p_seq ]
let nphases = Array.length phases
let phase = ref p_setup
let phase_wall = Array.make nphases 0.
let phase_minor = Array.make nphases 0.

type span = { s_name : string; s_engine : string; s_start : float; s_stop : float }

let spans = ref [] (* newest first *)

let span ~engine p f =
  phase := p;
  let m0 = Gc.minor_words () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  phase_wall.(p) <- phase_wall.(p) +. (t1 -. t0);
  phase_minor.(p) <- phase_minor.(p) +. (Gc.minor_words () -. m0);
  spans := { s_name = phases.(p); s_engine = engine; s_start = t0; s_stop = t1 } :: !spans;
  r

(* Allocator tracing: a fill makes over a million policy calls, too many
   to keep as spans, so each call adds to a (phase, closure) counter. *)
let closures =
  [|
    "ensure"; "delete"; "shrink_to"; "create_file"; "slice"; "extent_count"; "free_units"; "other";
  |]

let k_ensure, k_delete, k_shrink, k_create, k_slice, k_extent_count, k_free, k_other =
  (0, 1, 2, 3, 4, 5, 6, 7)

let nclosures = Array.length closures
let calls = Array.make (nphases * nclosures) 0
let self_s = Array.make (nphases * nclosures) 0.

let charge k t0 =
  let i = (!phase * nclosures) + k in
  calls.(i) <- calls.(i) + 1;
  self_s.(i) <- self_s.(i) +. (now () -. t0)

(* [ckpt_save] / [ckpt_load] pass through untimed: they run inside the
   checkpoint hook, whose time is counted as checkpoint time. *)
let wrap (p : C.Policy.t) : C.Policy.t =
  let timed k f x =
    let t0 = now () in
    let r = f x in
    charge k t0;
    r
  in
  {
    p with
    create_file =
      (fun ~file ~hint ->
        let t0 = now () in
        p.create_file ~file ~hint;
        charge k_create t0);
    file_exists = (fun ~file -> timed k_other (fun file -> p.file_exists ~file) file);
    ensure =
      (fun ~file ~target ->
        let t0 = now () in
        let r = p.ensure ~file ~target in
        charge k_ensure t0;
        r);
    shrink_to =
      (fun ~file ~target ->
        let t0 = now () in
        p.shrink_to ~file ~target;
        charge k_shrink t0);
    delete =
      (fun ~file ->
        let t0 = now () in
        p.delete ~file;
        charge k_delete t0);
    allocated_units = (fun ~file -> timed k_other (fun file -> p.allocated_units ~file) file);
    extent_count = (fun ~file -> timed k_extent_count (fun file -> p.extent_count ~file) file);
    extents = (fun ~file -> timed k_other (fun file -> p.extents ~file) file);
    slice =
      (fun ~file ~off ~len ->
        let t0 = now () in
        let r = p.slice ~file ~off ~len in
        charge k_slice t0;
        r);
    free_units = (fun () -> timed k_free p.free_units ());
    largest_free = (fun () -> timed k_other p.largest_free ());
    free_hist = (fun () -> timed k_other p.free_hist ());
    churn_stats = (fun () -> timed k_other p.churn_stats ());
  }

(* Workloads ------------------------------------------------------- *)

let rbuddy =
  C.Experiment.Restricted
    (C.Restricted_buddy.config ~grow_factor:1 ~clustered:true
       ~block_sizes_bytes:(C.Restricted_buddy.paper_block_sizes 5)
       ())

let extent workload =
  C.Experiment.Extent
    (C.Extent_alloc.config ~fit:C.Extent_alloc.First_fit
       ~range_means_bytes:(C.Workload.extent_ranges workload 3)
       ())

(* Simulated horizons, sized so that one sample takes a few seconds of
   host time and is dominated by the layer its workload is meant to
   show: two days of aging (a week would leave room for only two
   ts-aged samples per run), and TP horizons at which checkpointing is
   a visible minority of tp-queued-obs.  [stable_windows] sits above
   what the horizon allows, so the TP tests always run to the horizon:
   an early stabilization cannot shorten a run by chance. *)
let age_ms = 172_800_000.
let age_think_scale = 4032.
let tp_fcfs_ms = 7_200_000.
let tp_queued_ms = 1_800_000.
let ckpt_every_ms = 300_000.
let timeline_every_ms = 10_000.

let fixed_horizon cfg ms =
  { cfg with E.max_measure_ms = ms; stable_windows = int_of_float (ms /. cfg.E.interval_ms) + 1 }

type workload = {
  w_sim : C.Workload.t;
  w_engines : (string * C.Experiment.policy_spec * E.config) list;
  w_queued_obs : bool;
}

let workload name ~seed =
  let base = { E.default_config with seed } in
  let tp engines = { w_sim = C.Workload.tp; w_engines = engines; w_queued_obs = false } in
  match name with
  | "ts-aged" ->
      let cfg = { base with age_ms; age_think_scale } and ts = C.Workload.ts in
      {
        w_sim = ts;
        w_engines = [ ("extent", extent ts, cfg); ("rbuddy", rbuddy, cfg) ];
        w_queued_obs = false;
      }
  | "tp-fcfs" -> tp [ ("rbuddy", rbuddy, fixed_horizon base tp_fcfs_ms) ]
  | "tp-queued-obs" ->
      let cfg =
        {
          (fixed_horizon base tp_queued_ms) with
          scheduler = C.Sched_policy.Clook;
          cache = Some (C.Cache.config ~write_mode:C.Cache.Write_back ~mb:64 ());
        }
      in
      { (tp [ ("rbuddy", rbuddy, cfg) ]) with w_queued_obs = true }
  | other -> invalid_arg ("unknown workload " ^ other)

(* One engine's run ----------------------------------------------- *)

type result = {
  r_outputs : (string * J.t) list;
  r_failures : string list;  (** failed invariants *)
  r_app_io : int;
  r_seq_io : int;
  r_drives : E.drive_report array;
  r_sink : C.Sink.t option;
  r_cache : E.cache_report option;
  r_free_extents : int;
  r_largest_free_mb : float;
  r_write_cost : float;
  r_extents_per_file : float;
  r_windows : int;
  r_encode_s : float;
}

let ckpt_calls = ref 0
let ckpt_bytes = ref 0
let ckpt_self = Array.make nphases 0.
let hex f = J.Str (Printf.sprintf "%h" f)
let mb bytes = float_of_int bytes /. 1048576.

(* Arms the tp-queued-obs layers.  Snapshots are encoded as for a file
   but never written, so filesystem noise stays out of the measurement. *)
let attach_queued_obs engine =
  E.attach_obs engine (C.Sink.create ());
  E.attach_timeline engine ~every_ms:timeline_every_ms;
  E.set_checkpoint engine ~every_ms:ckpt_every_ms (fun () ->
      let outer = !phase in
      phase := p_ckpt;
      let t0 = now () in
      let blob = C.Ckpt.encode (E.checkpoint engine) in
      ckpt_self.(outer) <- ckpt_self.(outer) +. (now () -. t0);
      incr ckpt_calls;
      ckpt_bytes := !ckpt_bytes + String.length blob;
      phase := outer)

let run_engine ~traced w (label, spec, cfg) =
  let engine, policy =
    span ~engine:label p_setup (fun () ->
        let unit_bytes = C.Experiment.spec_unit_bytes spec in
        let total_units = C.Experiment.capacity_units cfg ~unit_bytes in
        (* the policy seed [Experiment.make_engine] uses *)
        let rng = C.Rng.create ~seed:(cfg.E.seed + 0x5eed) in
        let policy = C.Experiment.build_policy spec ~total_units ~rng in
        let policy = if traced then wrap policy else policy in
        let engine = E.create cfg ~policy ~workload:w.w_sim in
        if w.w_queued_obs then attach_queued_obs engine;
        (engine, policy))
  in
  span ~engine:label p_fill (fun () -> E.fill_to_lower_bound engine);
  span ~engine:label p_age (fun () -> E.run_aging engine);
  let app = span ~engine:label p_app (fun () -> E.run_application_test engine) in
  let seq = span ~engine:label p_seq (fun () -> E.run_sequential_test engine) in
  span ~engine:label p_check (fun () ->
      let volume = E.volume engine in
      let drives = E.drive_reports engine in
      let churn = E.churn_stats engine in
      let cache = E.cache_report engine in
      let hist = policy.free_hist () in
      let free_extents = List.fold_left (fun acc (_, c) -> acc + c) 0 hist in
      let failures = ref [] in
      let require ok msg = if not ok then failures := (label ^ ": " ^ msg) :: !failures in
      let used =
        List.fold_left
          (fun acc file -> acc + C.Volume.allocated_bytes volume ~file)
          0 (C.Volume.live_files volume)
      in
      require
        (used + C.Volume.free_bytes volume = C.Volume.total_bytes volume)
        "allocated + free <> total";
      require
        (List.fold_left (fun acc (size, c) -> acc + (size * c)) 0 hist = policy.free_units ())
        "free_hist sum <> free_units";
      require (C.Policy.write_cost churn = 1.0) "write cost <> 1.0 for a read-optimized policy";
      let queued, windows, encode_s =
        match (E.timeline engine, cache) with
        | Some tl, Some c ->
            let t0 = now () in
            let doc = J.to_string (C.Timeline.to_json tl) in
            let encode_s = now () -. t0 in
            let snapshot = E.checkpoint engine in
            let blob = C.Ckpt.encode snapshot in
            require (C.Ckpt.decode blob = Ok snapshot) "Ckpt.decode (Ckpt.encode s) <> Ok s";
            ( [
                ("cache.hits", J.Int c.E.cr_hits);
                ("cache.evictions", J.Int c.E.cr_evictions);
                ("cache.writeback_bytes", J.Int c.E.cr_writeback_bytes);
                ("timeline.windows", J.Int (C.Timeline.window_count tl));
                ("timeline.md5", J.Str (Digest.to_hex (Digest.string doc)));
                ("snapshot.md5", J.Str (Digest.to_hex (Digest.string blob)));
              ],
              C.Timeline.window_count tl,
              encode_s )
        | _ -> ([], 0, 0.)
      in
      let sum f = Array.fold_left (fun acc d -> acc + f d) 0 drives in
      let outputs =
        [
          ("app.pct_of_max", hex app.E.pct_of_max);
          ("app.measured_ms", hex app.E.measured_ms);
          ("app.io_ops", J.Int app.E.io_ops);
          ("app.disk_fulls", J.Int app.E.disk_fulls);
          ("seq.pct_of_max", hex seq.E.pct_of_max);
          ("seq.measured_ms", hex seq.E.measured_ms);
          ("seq.io_ops", J.Int seq.E.io_ops);
          ("drive.requests", J.Int (sum (fun d -> d.E.dr_requests)));
          ("drive.bytes", J.Int (sum (fun d -> d.E.dr_bytes)));
          ("churn.user_units", J.Int churn.C.Policy.cs_user_units);
          ("churn.moved_units", J.Int churn.C.Policy.cs_moved_units);
          ("churn.cleaner_passes", J.Int churn.C.Policy.cs_cleaner_passes);
          ("free.extents", J.Int free_extents);
          ("free.units", J.Int (policy.free_units ()));
          ("free.largest", J.Int (policy.largest_free ()));
          ("extents_per_file", hex (C.Volume.mean_extents_per_file volume));
        ]
        @ queued
      in
      {
        r_outputs = List.map (fun (k, v) -> (label ^ "." ^ k, v)) outputs;
        r_failures = List.rev !failures;
        r_app_io = app.E.io_ops;
        r_seq_io = seq.E.io_ops;
        r_drives = drives;
        r_sink = E.obs engine;
        r_cache = cache;
        r_free_extents = free_extents;
        r_largest_free_mb = mb (C.Policy.bytes_of_units policy (policy.largest_free ()));
        r_write_cost = C.Policy.write_cost churn;
        r_extents_per_file = C.Volume.mean_extents_per_file volume;
        r_windows = windows;
        r_encode_s = encode_s;
      })

(* Per-layer figures of a traced sample ----------------------------- *)

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (max 1 (List.length xs))
let per_op wall n = if n = 0 then 0. else 1e6 *. wall /. float_of_int n

(* A layer the workload does not use reads 0. *)
let absent names = List.map (fun k -> (k, J.Float 0.)) names

let layers ~wall results =
  let f x = J.Float x and i x = J.Int x in
  let sum_over g = List.fold_left (fun acc r -> acc + g r) 0 results in
  let closure_calls p k = calls.((p * nclosures) + k) in
  let closure_self p k = self_s.((p * nclosures) + k) in
  let alloc_self p = List.fold_left ( +. ) 0. (List.init nclosures (closure_self p)) in
  let ops p =
    if p = p_app then sum_over (fun r -> r.r_app_io)
    else if p = p_seq then sum_over (fun r -> r.r_seq_io)
    else
      List.fold_left
        (fun acc k -> acc + closure_calls p k)
        0
        [ k_create; k_ensure; k_shrink; k_delete ]
  in
  let phase_metrics =
    List.concat_map
      (fun p ->
        let name = "phase." ^ phases.(p) in
        [
          (name ^ ".wall_s", f phase_wall.(p));
          (name ^ ".minor_mwords", f (phase_minor.(p) /. 1e6));
          (name ^ ".ops", i (ops p));
          (name ^ ".host_us_per_op", f (per_op phase_wall.(p) (ops p)));
        ])
      measured_phases
  in
  let closure_metrics prefix ps =
    List.concat
      (List.init nclosures (fun k ->
           let name = Printf.sprintf "alloc.%s%s" prefix closures.(k) in
           [
             (name ^ ".calls", i (List.fold_left (fun acc p -> acc + closure_calls p k) 0 ps));
             (name ^ ".self_s", f (List.fold_left (fun acc p -> acc +. closure_self p k) 0. ps));
           ]))
  in
  let share p = if phase_wall.(p) > 0. then alloc_self p /. phase_wall.(p) else 0. in
  let alloc_metrics =
    closure_metrics "" (List.init nphases Fun.id)
    @ closure_metrics "fill." [ p_fill ]
    @ closure_metrics "age." [ p_age ]
    @ List.map (fun p -> ("alloc.self_s." ^ phases.(p), f (alloc_self p))) measured_phases
    @ [ ("alloc.share.fill", f (share p_fill)); ("alloc.share.age", f (share p_age)) ]
  in
  let state_metrics =
    [
      ("alloc.free_extents", i (sum_over (fun r -> r.r_free_extents)));
      ( "alloc.largest_free_mb",
        f (List.fold_left (fun acc r -> Float.min acc r.r_largest_free_mb) infinity results) );
      ( "alloc.write_cost",
        f (List.fold_left (fun acc r -> Float.max acc r.r_write_cost) 0. results) );
      ("alloc.extents_per_file", f (mean (List.map (fun r -> r.r_extents_per_file) results)));
    ]
  in
  let sim_metrics =
    List.map
      (fun p ->
        ("sim.self_s." ^ phases.(p), f (phase_wall.(p) -. alloc_self p -. ckpt_self.(p))))
      [ p_fill; p_age; p_app; p_seq ]
  in
  let drives = List.concat_map (fun r -> Array.to_list r.r_drives) results in
  let dsum g = List.fold_left (fun acc d -> acc + g d) 0 drives in
  let requests = dsum (fun d -> d.E.dr_requests) in
  let disk_metrics =
    [
      ("disk.requests", i requests);
      ("disk.seeks", i (dsum (fun d -> d.E.dr_seeks)));
      ("disk.bytes_mb", f (mb (dsum (fun d -> d.E.dr_bytes))));
      ("disk.busy_frac", f (mean (List.map (fun d -> d.E.dr_utilization) drives)));
      ( "disk.host_us_per_request",
        f (per_op (phase_wall.(p_app) +. phase_wall.(p_seq)) requests) );
    ]
  in
  let sched_obs_metrics =
    match List.find_map (fun r -> r.r_sink) results with
    | None ->
        absent
          [
            "sched.queue_mean"; "sched.queue_max"; "sched.queue_wait_p50_ms";
            "sched.queue_wait_p99_ms"; "sched.queue_wait_samples"; "obs.latency_p50_ms";
            "obs.latency_p99_ms"; "obs.latency_samples";
          ]
    | Some s ->
        let depths = List.init (C.Sink.drive_count s) (C.Sink.drive_queue_depth s) in
        let wait = C.Sink.queue_wait s and latency = C.Sink.latency s in
        [
          ("sched.queue_mean", f (mean (List.map fst depths)));
          ("sched.queue_max", i (List.fold_left (fun acc (_, m) -> max acc m) 0 depths));
          ("sched.queue_wait_p50_ms", f (C.Hist.p50 wait));
          ("sched.queue_wait_p99_ms", f (C.Hist.p99 wait));
          ("sched.queue_wait_samples", i (C.Hist.count wait));
          ("obs.latency_p50_ms", f (C.Hist.p50 latency));
          ("obs.latency_p99_ms", f (C.Hist.p99 latency));
          ("obs.latency_samples", i (C.Hist.count latency));
        ]
  in
  let cache_metrics =
    match List.find_map (fun r -> r.r_cache) results with
    | None ->
        absent
          [
            "cache.lookups"; "cache.hit_rate"; "cache.evictions"; "cache.writeback_mb";
            "cache.prefetched_pages";
          ]
    | Some c ->
        [
          ("cache.lookups", i c.E.cr_lookups);
          ("cache.hit_rate", f c.E.cr_hit_rate);
          ("cache.evictions", i c.E.cr_evictions);
          ("cache.writeback_mb", f (mb c.E.cr_writeback_bytes));
          ("cache.prefetched_pages", i c.E.cr_prefetched_pages);
        ]
  in
  let ckpt_total = Array.fold_left ( +. ) 0. ckpt_self in
  let per_snapshot x = if !ckpt_calls = 0 then 0. else x /. float_of_int !ckpt_calls in
  let ckpt_metrics =
    [
      ("timeline.windows", i (sum_over (fun r -> r.r_windows)));
      ("timeline.encode_s", f (List.fold_left (fun acc r -> acc +. r.r_encode_s) 0. results));
      ("ckpt.calls", i !ckpt_calls);
      ("ckpt.self_s", f ckpt_total);
      ("ckpt.bytes", f (per_snapshot (float_of_int !ckpt_bytes)));
      ("ckpt.ms_per_snapshot", f (per_snapshot (1e3 *. ckpt_total)));
    ]
  in
  let covered = List.fold_left (fun acc s -> acc +. (s.s_stop -. s.s_start)) 0. !spans in
  phase_metrics @ alloc_metrics @ state_metrics @ sim_metrics @ disk_metrics @ sched_obs_metrics
  @ cache_metrics @ ckpt_metrics
  @ [ ("trace.span_coverage", f (covered /. wall)) ]

(* Span times are seconds since the process started. *)
let spans_json () =
  J.Arr
    (List.rev_map
       (fun s ->
         J.Obj
           [
             ("name", J.Str s.s_name);
             ("engine", J.Str s.s_engine);
             ("start_s", J.Float (s.s_start -. origin));
             ("end_s", J.Float (s.s_stop -. origin));
           ])
       !spans)

let () =
  let name = ref "" and seed = ref None and traced = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string name, "NAME ts-aged | tp-fcfs | tp-queued-obs");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N workload seed");
      ("--trace", Arg.Set traced, " wrap the allocator and report per-layer figures");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "sample.exe --workload NAME --seed N [--trace]";
  let die msg =
    prerr_endline ("sample: " ^ msg);
    exit 2
  in
  let seed = match !seed with Some s -> s | None -> die "--seed is required" in
  let w = try workload !name ~seed with Invalid_argument msg -> die msg in
  let minor0 = Gc.minor_words () in
  let t0 = now () in
  let results =
    List.mapi
      (fun i e ->
        (* The previous engine is garbage by now.  Collecting it first
           makes the peak heap that of the larger engine, not of how far
           the major GC had got when the next one started. *)
        if i > 0 then Gc.full_major ();
        run_engine ~traced:!traced w e)
      w.w_engines
  in
  let wall = now () -. t0 in
  let minor = Gc.minor_words () -. minor0 in
  let heap_bytes = (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8) in
  let failures = List.concat_map (fun r -> List.map (fun m -> J.Str m) r.r_failures) results in
  let doc =
    [
      ("workload", J.Str !name);
      ("seed", J.Int seed);
      ("traced", J.Bool !traced);
      ("wall_s", J.Float wall);
      ("setup_s", J.Float phase_wall.(p_setup));
      ("peak_heap_mb", J.Float (mb heap_bytes));
      ("minor_mwords", J.Float (minor /. 1e6));
      ("outputs", J.Obj (List.concat_map (fun r -> r.r_outputs) results));
      ("failures", J.Arr failures);
    ]
    @
    if !traced then [ ("layers", J.Obj (layers ~wall results)); ("spans", spans_json ()) ]
    else []
  in
  print_endline (J.to_string (J.Obj doc))
