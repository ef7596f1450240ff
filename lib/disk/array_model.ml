module Sched_policy = Rofs_sched.Policy
module Squeue = Rofs_sched.Scheduler.Queue
module Fault_plan = Rofs_fault.Plan
module Fault = Rofs_fault.State
module Sink = Rofs_obs.Sink
module Tr = Rofs_obs.Trace
module Runs = Rofs_util.Runs

type config =
  | Striped of { stripe_unit : int }
  | Mirrored of { stripe_unit : int }
  | Raid5 of { stripe_unit : int }
  | Parity_striped

type kind = Read | Write

(* Per-operation service-time decomposition, allocated only when a sink
   is attached.  All-float record: the fields stay flat, so the
   accumulating stores in [dispatch] never allocate. *)
type op_obs = {
  mutable ob_seek : float;
  mutable ob_rotation : float;
  mutable ob_transfer : float;
  mutable ob_penalty : float;
}

(* One logical operation submitted through the dispatch-queue path: a
   set of per-drive chunk requests that complete independently. *)
type op = {
  op_id : int;
  submitted : float;
  mutable chunks_left : int;
  mutable began : float;  (** earliest dispatch start; [infinity] until one runs *)
  mutable last_finish : float;
  mutable o_bytes : int;  (** data (non-redundancy) bytes *)
  mutable o_obs : op_obs option;
}

(* One chunk pending on (or in service at) a drive. *)
type req = {
  r_op : op;
  r_offset : int;
  r_bytes : int;
  r_parity : bool;
  r_passes : int;
  mutable r_start : float;
  mutable r_finish : float;
}

type t = {
  config : config;
  geometry : Geometry.t;  (** representative drive (the first) *)
  drives : Drive.t array;
  drive_capacity : int;  (** usable bytes per drive: the smallest drive's capacity *)
  per_drive_sustained : float;  (** sequential rate of the slowest drive *)
  rng : Rofs_util.Rng.t;
  mutable bytes_moved : int;
  scheduler : Sched_policy.t;
  queues : req Squeue.t array;  (** pending requests, one dispatch queue per drive *)
  in_service : req option array;  (** the request each drive is currently moving *)
  busy_box : float option array;
      (** with media faults on the queued path: the boxed completion time
          that was also the drive's busy clock in the record layout, so
          snapshots marshal the same sharing; see [dispatch_push] *)
  mutable next_op_id : int;
  fault : Fault.t;  (** drive health, media-error and dirty-region state *)
  media_on : bool;  (** media faults configured: consult [fault] per chunk *)
  all_drives : int list;  (** [0; ...; disks-1], the reconstruction group *)
  mutable obs : Sink.t option;  (** instrumentation sink; [None] ⇒ no recording *)
  ob_scratch : float array;
      (** sync-path accounting, live only while a sink is attached.
          Slots 0-3: the current operation's seek / rotation / transfer /
          fault-penalty totals; slots 4-6: the component totals of the
          drive being issued to, read before the access. *)
  (* Chunk scratch buffer: the physical chunks of the operation being
     mapped, struct-of-arrays so that mapping an extent allocates
     nothing.  Chunks are appended in generation order — the order the
     old list-based mapper produced — and the whole operation is
     generated before any chunk is issued, so degraded-mode decisions
     (mirror arm choice, [Fault.Data_loss]) observe pre-operation drive
     state exactly as before. *)
  mutable cb_disk : int array;
  mutable cb_offset : int array;
  mutable cb_bytes : int array;
  mutable cb_parity : bool array;
  mutable cb_rmw : bool array;
  mutable cb_len : int;
  window : float array;
      (** service window of the last synchronous operation: slot 0 when
          its first chunk began, slot 1 when its last one finished *)
  list_runs : Runs.t;  (** the list-taking entry points' runs *)
  (* Dispatch scratch buffer: the requests started by the last
     [submit_runs] / [complete_flat], in dispatch order. *)
  mutable db_drive : int array;
  mutable db_op_id : int array;
  mutable db_started : float array;
  mutable db_finished : float array;
  mutable db_bytes : int array;
  mutable db_parity : bool array;
  mutable db_len : int;
  (* First-touch-ordered drives of the operation being submitted. *)
  touched_mark : bool array;
  touched : int array;
  mutable touched_len : int;
}

let create_mixed ?(seed = 0) ?(scheduler = Sched_policy.Fcfs) ?(faults = Fault_plan.none)
    ~geometries config =
  let disks = List.length geometries in
  if disks <= 0 then invalid_arg "Array_model.create: need at least one disk";
  List.iter
    (fun geometry ->
      match config with
      | Striped { stripe_unit } | Mirrored { stripe_unit } | Raid5 { stripe_unit } ->
          if stripe_unit < geometry.Geometry.sector_bytes then
            invalid_arg "Array_model.create: stripe unit smaller than sector"
      | Parity_striped -> ())
    geometries;
  (match config with
  | Mirrored _ when disks mod 2 <> 0 ->
      invalid_arg "Array_model.create: mirroring needs an even disk count"
  | Raid5 _ when disks < 3 -> invalid_arg "Array_model.create: RAID-5 needs >= 3 disks"
  | Parity_striped when disks < 2 ->
      invalid_arg "Array_model.create: parity striping needs >= 2 disks"
  | _ -> ());
  let fold f init = List.fold_left f init geometries in
  {
    config;
    geometry = List.hd geometries;
    drives = Array.of_list (List.map Drive.create geometries);
    drive_capacity = fold (fun acc g -> min acc (Geometry.capacity_bytes g)) max_int;
    per_drive_sustained = fold (fun acc g -> Float.min acc (Geometry.sustained_bytes_per_ms g)) infinity;
    rng = Rofs_util.Rng.create ~seed;
    bytes_moved = 0;
    scheduler;
    queues = Array.init disks (fun _ -> Squeue.create scheduler);
    in_service = Array.make disks None;
    busy_box = Array.make disks None;
    next_op_id = 0;
    fault = Fault.create faults ~drives:disks;
    media_on = Fault_plan.media_faults faults;
    all_drives = List.init disks Fun.id;
    obs = None;
    ob_scratch = Array.make 7 0.;
    cb_disk = Array.make 64 0;
    cb_offset = Array.make 64 0;
    cb_bytes = Array.make 64 0;
    cb_parity = Array.make 64 false;
    cb_rmw = Array.make 64 false;
    cb_len = 0;
    window = Array.make 2 0.;
    list_runs = Runs.create ();
    db_drive = Array.make 16 0;
    db_op_id = Array.make 16 0;
    db_started = Array.make 16 0.;
    db_finished = Array.make 16 0.;
    db_bytes = Array.make 16 0;
    db_parity = Array.make 16 false;
    db_len = 0;
    touched_mark = Array.make disks false;
    touched = Array.make disks 0;
    touched_len = 0;
  }

let create ?(geometry = Geometry.cdc_wren_iv) ?seed ?scheduler ?faults ~disks config =
  if disks <= 0 then invalid_arg "Array_model.create: need at least one disk";
  create_mixed ?seed ?scheduler ?faults ~geometries:(List.init disks (fun _ -> geometry)) config

let attach_obs t sink = t.obs <- Some sink
let obs t = t.obs

let config t = t.config
let disks t = Array.length t.drives
let geometry t = t.geometry
let scheduler t = t.scheduler
let fault_state t = t.fault

let drive_capacity t = t.drive_capacity

(* Share of each drive devoted to data under parity striping: one
   drive's worth of parity is spread over all N drives. *)
let parity_striped_data_per_drive t =
  let n = disks t in
  drive_capacity t * (n - 1) / n

let capacity_bytes t =
  let n = disks t in
  match t.config with
  | Striped _ -> n * drive_capacity t
  | Mirrored _ -> n / 2 * drive_capacity t
  | Raid5 _ -> (n - 1) * drive_capacity t
  | Parity_striped -> n * parity_striped_data_per_drive t

let max_bandwidth_bytes_per_ms t =
  let per_drive = t.per_drive_sustained in
  let n = disks t in
  let effective =
    (* Mirrored arrays read from every spindle (each arm serves
       different stripes), so the sequential maximum counts all
       drives. *)
    match t.config with
    | Striped _ | Mirrored _ -> n
    | Raid5 _ | Parity_striped -> n - 1
  in
  float_of_int effective *. per_drive

(* ------------------------------------------------------------------ *)
(* Chunk generation into the scratch buffer                            *)

let cb_grow t need =
  let cap = Array.length t.cb_disk in
  if need > cap then begin
    let cap' = max need (2 * cap) in
    let grow_i a = let a' = Array.make cap' 0 in Array.blit a 0 a' 0 t.cb_len; a' in
    let grow_b a = let a' = Array.make cap' false in Array.blit a 0 a' 0 t.cb_len; a' in
    t.cb_disk <- grow_i t.cb_disk;
    t.cb_offset <- grow_i t.cb_offset;
    t.cb_bytes <- grow_i t.cb_bytes;
    t.cb_parity <- grow_b t.cb_parity;
    t.cb_rmw <- grow_b t.cb_rmw
  end

let cb_push t ~disk ~offset ~bytes ~parity ~rmw =
  cb_grow t (t.cb_len + 1);
  let i = t.cb_len in
  t.cb_disk.(i) <- disk;
  t.cb_offset.(i) <- offset;
  t.cb_bytes.(i) <- bytes;
  t.cb_parity.(i) <- parity;
  t.cb_rmw.(i) <- rmw;
  t.cb_len <- i + 1

let cb_push_data t ~disk ~offset ~bytes = cb_push t ~disk ~offset ~bytes ~parity:false ~rmw:false

(* Queued + in-service depth of one drive's dispatch queue. *)
let load t d =
  Squeue.length t.queues.(d) + (match t.in_service.(d) with Some _ -> 1 | None -> 0)

(* Reconstruct one unit of a dead drive from its redundancy group: read
   the same [take]-byte region of every surviving member, paying each
   read's real positioning and transfer time.  The first surviving chunk
   carries the data credit (the caller asked for [take] data bytes); the
   others are redundancy traffic.  A second unavailable member means the
   group cannot cover the loss. *)
let reconstruct_chunks t ~dead ~members ~offset ~take =
  Fault.note_reconstructed_read t.fault;
  let first = ref true in
  List.iter
    (fun d ->
      if d <> dead then begin
        if Fault.readable t.fault ~drive:d ~offset ~bytes:take then begin
          cb_push t ~disk:d ~offset ~bytes:take ~parity:(not !first) ~rmw:false;
          first := false
        end
        else raise (Fault.Data_loss { drive = dead; offset; bytes = take })
      end)
    members;
  if !first then raise (Fault.Data_loss { drive = dead; offset; bytes = take })

(* Size of the logical units an extent is split into: a stripe unit, or
   under parity striping (drives concatenated) a drive's data share. *)
let unit_bytes t =
  match t.config with
  | Striped { stripe_unit } | Mirrored { stripe_unit } | Raid5 { stripe_unit } -> stripe_unit
  | Parity_striped -> parity_striped_data_per_drive t

(* Append the chunks of [take] bytes at [within] of logical unit [idx],
   units being [unit] = [unit_bytes t] long. *)
let place_unit t ~queued ~kind ~unit idx within take =
  let n = disks t in
  match t.config with
  | Striped _ ->
      let disk = idx mod n in
      let offset = (idx / n * unit) + within in
      (* No redundancy: a dead drive's units are simply gone, and a
         write that cannot land has nowhere else to go. *)
      let lost =
        match kind with
        | Read -> not (Fault.readable t.fault ~drive:disk ~offset ~bytes:take)
        | Write -> not (Fault.writable t.fault ~drive:disk)
      in
      if lost then raise (Fault.Data_loss { drive = disk; offset; bytes = take });
      cb_push_data t ~disk ~offset ~bytes:take
  | Mirrored _ -> (
      let pairs = n / 2 in
      let pair = idx mod pairs in
      let offset = (idx / pairs * unit) + within in
      let primary = 2 * pair and secondary = (2 * pair) + 1 in
      match kind with
      | Read ->
          let pok = Fault.readable t.fault ~drive:primary ~offset ~bytes:take in
          let sok = Fault.readable t.fault ~drive:secondary ~offset ~bytes:take in
          let disk =
            if pok && sok then
              (* Both arms alive: prefer the arm already streaming this
                 extent; otherwise the shorter queue (dispatch-queue
                 depth when scheduling is queued, the busy clock on the
                 FCFS fast path). *)
              if Drive.next_sequential t.drives.(primary) = offset then primary
              else if Drive.next_sequential t.drives.(secondary) = offset then secondary
              else if queued && load t primary <> load t secondary then
                if load t primary < load t secondary then primary else secondary
              else if
                (Drive.clock t.drives.(primary)).(Drive.busy_slot)
                <= (Drive.clock t.drives.(secondary)).(Drive.busy_slot)
              then primary
              else secondary
            else if pok || sok then begin
              (* Failover: the surviving arm serves the read alone. *)
              Fault.note_reconstructed_read t.fault;
              if pok then primary else secondary
            end
            else raise (Fault.Data_loss { drive = primary; offset; bytes = take })
          in
          cb_push_data t ~disk ~offset ~bytes:take
      | Write ->
          let pok = Fault.writable t.fault ~drive:primary in
          let sok = Fault.writable t.fault ~drive:secondary in
          if pok && sok then begin
            cb_push_data t ~disk:primary ~offset ~bytes:take;
            cb_push t ~disk:secondary ~offset ~bytes:take ~parity:true ~rmw:false
          end
          else if pok || sok then begin
            (* Degraded write: skip the dead arm and remember what it
               missed; the rebuild sweep will restore it. *)
            Fault.note_degraded_write t.fault;
            let dead = if pok then secondary else primary in
            Fault.log_dirty t.fault ~drive:dead ~offset ~bytes:take;
            cb_push_data t ~disk:(if pok then primary else secondary) ~offset ~bytes:take
          end
          else raise (Fault.Data_loss { drive = primary; offset; bytes = take }))
  | Raid5 _ -> (
      let data_per_row = n - 1 in
      let row = idx / data_per_row in
      let pos = idx mod data_per_row in
      let parity_disk = row mod n in
      let disk = if pos < parity_disk then pos else pos + 1 in
      let offset = (row * unit) + within in
      match kind with
      | Read ->
          if Fault.readable t.fault ~drive:disk ~offset ~bytes:take then
            cb_push_data t ~disk ~offset ~bytes:take
          else
            (* Degraded read: XOR of the row's surviving units. *)
            reconstruct_chunks t ~dead:disk ~members:t.all_drives ~offset ~take
      | Write ->
          let dok = Fault.writable t.fault ~drive:disk in
          let pok = Fault.writable t.fault ~drive:parity_disk in
          if dok && pok then begin
            (* Small-write penalty: read-modify-write of the data unit
               and of the row's parity unit. *)
            cb_push t ~disk ~offset ~bytes:take ~parity:false ~rmw:true;
            cb_push t ~disk:parity_disk ~offset ~bytes:take ~parity:true ~rmw:true
          end
          else if pok then begin
            (* Dead data arm: keep the row's parity current so the data
               is recoverable, and log the dirty region. *)
            Fault.note_degraded_write t.fault;
            Fault.log_dirty t.fault ~drive:disk ~offset ~bytes:take;
            cb_push t ~disk:parity_disk ~offset ~bytes:take ~parity:true ~rmw:true
          end
          else if dok then begin
            (* Dead parity arm: plain write, nothing to read-modify. *)
            Fault.note_degraded_write t.fault;
            Fault.log_dirty t.fault ~drive:parity_disk ~offset ~bytes:take;
            cb_push t ~disk ~offset ~bytes:take ~parity:false ~rmw:false
          end
          else raise (Fault.Data_loss { drive = disk; offset; bytes = take }))
  | Parity_striped -> (
      let disk = idx in
      match kind with
      | Read ->
          if Fault.readable t.fault ~drive:disk ~offset:within ~bytes:take then
            cb_push_data t ~disk ~offset:within ~bytes:take
          else reconstruct_chunks t ~dead:disk ~members:t.all_drives ~offset:within ~take
      | Write ->
          (* Parity for drive d's data lives in the parity region of drive
             d+1 (mod N), scaled down N-1 : 1. *)
          let pdisk = (disk + 1) mod n in
          let poff = unit + (within mod (drive_capacity t - unit)) in
          let pbytes = Int.min take (drive_capacity t - poff) in
          let dok = Fault.writable t.fault ~drive:disk in
          let pok = Fault.writable t.fault ~drive:pdisk in
          if dok && pok then begin
            cb_push_data t ~disk ~offset:within ~bytes:take;
            cb_push t ~disk:pdisk ~offset:poff ~bytes:pbytes ~parity:true ~rmw:true
          end
          else if pok then begin
            Fault.note_degraded_write t.fault;
            Fault.log_dirty t.fault ~drive:disk ~offset:within ~bytes:take;
            cb_push t ~disk:pdisk ~offset:poff ~bytes:pbytes ~parity:true ~rmw:true
          end
          else if dok then begin
            Fault.note_degraded_write t.fault;
            Fault.log_dirty t.fault ~drive:pdisk ~offset:poff ~bytes:pbytes;
            cb_push_data t ~disk ~offset:within ~bytes:take
          end
          else raise (Fault.Data_loss { drive = disk; offset = within; bytes = take }))

(* Map an operation's logical runs onto physical chunks, appended to the
   chunk buffer in generation order.  May raise [Fault.Data_loss]
   mid-append; the buffer is reset per operation, so a partially
   generated operation is simply abandoned (nothing has been issued
   yet). *)
let gen_runs t ~queued ~kind runs =
  t.cb_len <- 0;
  let capacity = capacity_bytes t and unit = unit_bytes t in
  for i = 0 to Runs.length runs - 1 do
    let addr = ref (Runs.addr runs i) and len = ref (Runs.len runs i) in
    if !len < 0 || !addr < 0 || !addr + !len > capacity then
      invalid_arg "Array_model: extent outside the array";
    while !len > 0 do
      let within = !addr mod unit in
      let take = Int.min !len (unit - within) in
      place_unit t ~queued ~kind ~unit (!addr / unit) within take;
      addr := !addr + take;
      len := !len - take
    done
  done

type service = { began : float; finished : float }

(* Extra service time charged by the media-fault model for one chunk
   request, pushed onto the drive's busy clock; the chunk's completion
   time is then the drive's [done_slot].  Only called when media faults
   are on: otherwise there is no penalty and no fault-RNG draw. *)
let media_stall t ~disk ~offset ~bytes =
  let drive = t.drives.(disk) in
  let g = Drive.geometry drive in
  let extra =
    Fault.media_extra_ms t.fault ~drive:disk ~rotation_ms:g.Geometry.rotation_ms
      ~sector_bytes:g.Geometry.sector_bytes ~offset ~bytes
  in
  Drive.stall drive ~ms:extra

let perform_buf t ~now =
  (* Issue the buffered chunks drive by drive in generation order; each
     drive's queue (its busy clock) serialises them, distinct drives
     overlap.  [window.(0)] is the moment the first chunk starts moving
     — after any queueing behind earlier operations — and [window.(1)]
     when the last one completes.

     Instrumentation contract: every recording is guarded on [t.obs],
     and the guarded reads feed fixed scratch slots, so the un-observed
     path performs the same work (and the same RNG draws) as before a
     sink existed — byte-identical results either way. *)
  let w = t.window in
  w.(0) <- infinity;
  w.(1) <- now;
  (match t.obs with
  | None -> ()
  | Some _ ->
      let s = t.ob_scratch in
      s.(0) <- 0.;
      s.(1) <- 0.;
      s.(2) <- 0.;
      s.(3) <- 0.);
  for i = 0 to t.cb_len - 1 do
    let disk = t.cb_disk.(i) in
    let offset = t.cb_offset.(i) in
    let bytes = t.cb_bytes.(i) in
    let drive = t.drives.(disk) in
    let clock = Drive.clock drive in
    (match t.obs with
    | None -> ()
    | Some _ ->
        let s = t.ob_scratch in
        s.(4) <- Drive.seek_ms_total drive;
        s.(5) <- Drive.rotation_ms_total drive;
        s.(6) <- Drive.transfer_ms_total drive);
    Drive.issue drive ~now ~rng:t.rng ~offset ~bytes;
    let start = clock.(Drive.start_slot) in
    if start < w.(0) then w.(0) <- start;
    if t.cb_rmw.(i) then Drive.issue drive ~now ~rng:t.rng ~offset ~bytes;
    let served = clock.(Drive.done_slot) in
    if t.media_on then media_stall t ~disk ~offset ~bytes;
    let done_at = clock.(Drive.done_slot) in
    (match t.obs with
    | None -> ()
    | Some sink ->
        let s = t.ob_scratch in
        s.(0) <- s.(0) +. (Drive.seek_ms_total drive -. s.(4));
        s.(1) <- s.(1) +. (Drive.rotation_ms_total drive -. s.(5));
        s.(2) <- s.(2) +. (Drive.transfer_ms_total drive -. s.(6));
        let extra = done_at -. served in
        if extra > 0. then begin
          s.(3) <- s.(3) +. extra;
          Sink.record_fault_penalty sink extra
        end;
        let dist = Drive.last_seek_cylinders drive in
        if dist > 0 then Sink.record_seek sink ~drive:disk ~cylinders:dist;
        if Sink.tracing sink then begin
          Sink.event sink
            {
              Tr.at_ms = start;
              dur_ms = done_at -. start;
              kind = Tr.Dispatch;
              drive = disk;
              op_id = -1;
              bytes;
            };
          if extra > 0. then
            Sink.event sink
              {
                Tr.at_ms = served;
                dur_ms = extra;
                kind = Tr.Media;
                drive = disk;
                op_id = -1;
                bytes = 0;
              }
        end);
    if done_at > w.(1) then w.(1) <- done_at;
    if not t.cb_parity.(i) then t.bytes_moved <- t.bytes_moved + bytes
  done;
  if w.(0) = infinity then w.(0) <- now

let last_breakdown t =
  let s = t.ob_scratch in
  (s.(0), s.(1), s.(2), s.(3))

let serve_runs t ~now ~kind runs =
  gen_runs t ~queued:false ~kind runs;
  perform_buf t ~now

let window t = t.window

(* The list-taking entry points are adapters onto the run path. *)
let serve_list t ~now ~kind extents =
  Runs.set_list t.list_runs extents;
  serve_runs t ~now ~kind t.list_runs

let service t ~now ~kind ~extents =
  serve_list t ~now ~kind extents;
  { began = t.window.(0); finished = t.window.(1) }

let access t ~now ~kind ~extents =
  serve_list t ~now ~kind extents;
  t.window.(1)

(* ------------------------------------------------------------------ *)
(* Dispatch-queue path: requests are queued per drive and the scheduler
   policy picks which one the arm serves when it falls idle, so a
   later-arriving request can be reordered ahead of queued ones.  The
   engine drives this with one completion event per in-service request;
   the array never looks at a clock of its own. *)

type dispatched = {
  d_drive : int;
  d_op_id : int;
  d_started : float;
  d_finished : float;
  d_bytes : int;
  d_parity : bool;
}

type completion = { c_op : op; c_op_done : bool }

let op_id (op : op) = op.op_id
let op_done (op : op) = op.chunks_left = 0
let op_submitted (op : op) = op.submitted
let op_bytes (op : op) = op.o_bytes

let op_breakdown (op : op) =
  match op.o_obs with
  | None -> None
  | Some o -> Some (o.ob_seek, o.ob_rotation, o.ob_transfer, o.ob_penalty)

let op_service (op : op) =
  {
    began = (if op.began = infinity then op.submitted else op.began);
    finished = Float.max op.last_finish op.submitted;
  }

let op_began (op : op) = if op.began = infinity then op.submitted else op.began
let op_finished (op : op) = Float.max op.last_finish op.submitted

let in_service_finish t ~drive =
  match t.in_service.(drive) with Some r -> Some r.r_finish | None -> None

let db_grow t need =
  let cap = Array.length t.db_drive in
  if need > cap then begin
    let cap' = max need (2 * cap) in
    let grow_i a = let a' = Array.make cap' 0 in Array.blit a 0 a' 0 t.db_len; a' in
    let grow_f a = let a' = Array.make cap' 0. in Array.blit a 0 a' 0 t.db_len; a' in
    let grow_b a = let a' = Array.make cap' false in Array.blit a 0 a' 0 t.db_len; a' in
    t.db_drive <- grow_i t.db_drive;
    t.db_op_id <- grow_i t.db_op_id;
    t.db_started <- grow_f t.db_started;
    t.db_finished <- grow_f t.db_finished;
    t.db_bytes <- grow_i t.db_bytes;
    t.db_parity <- grow_b t.db_parity
  end

(* Start the next pending request on an idle drive, if any; a started
   request is appended to the dispatch buffer. *)
let dispatch_push t d ~now =
  match t.in_service.(d) with
  | Some _ -> ()
  | None -> begin
      let drive = t.drives.(d) in
      match Squeue.take t.queues.(d) ~head:(Drive.head_cylinder drive) with
      | None -> ()
      | Some (_cyl, req) ->
          let clock = Drive.clock drive in
          (match t.obs with
          | None -> ()
          | Some _ ->
              let s = t.ob_scratch in
              s.(4) <- Drive.seek_ms_total drive;
              s.(5) <- Drive.rotation_ms_total drive;
              s.(6) <- Drive.transfer_ms_total drive);
          (* [Float.max now busy_until] as ONE boxed value, stored below
             in both [r_start] and the op's [began]: snapshots marshal
             the sharing of boxed floats, and this keeps what the
             record-field clocks had.  That is [now] itself unless the
             drive is still busy, and then the drive's old clock box —
             with media faults on, the previous request's completion. *)
          let busy = clock.(Drive.busy_slot) in
          let start =
            if busy > now then
              match t.busy_box.(d) with
              | Some b when b = busy -> b
              | Some _ | None -> Sys.opaque_identity busy
            else now
          in
          Drive.serve drive ~now:start ~rng:t.rng ~offset:req.r_offset ~bytes:req.r_bytes
            ~passes:req.r_passes;
          let served = clock.(Drive.done_slot) in
          if t.media_on then media_stall t ~disk:d ~offset:req.r_offset ~bytes:req.r_bytes;
          let finish = clock.(Drive.done_slot) in
          (match t.obs with
          | None -> ()
          | Some sink ->
              let s = t.ob_scratch in
              (match req.r_op.o_obs with
              | None -> ()
              | Some o ->
                  o.ob_seek <- o.ob_seek +. (Drive.seek_ms_total drive -. s.(4));
                  o.ob_rotation <- o.ob_rotation +. (Drive.rotation_ms_total drive -. s.(5));
                  o.ob_transfer <- o.ob_transfer +. (Drive.transfer_ms_total drive -. s.(6));
                  let extra = finish -. served in
                  if extra > 0. then begin
                    o.ob_penalty <- o.ob_penalty +. extra;
                    Sink.record_fault_penalty sink extra
                  end);
              let dist = Drive.last_seek_cylinders drive in
              if dist > 0 then Sink.record_seek sink ~drive:d ~cylinders:dist;
              if Sink.tracing sink then begin
                Sink.event sink
                  {
                    Tr.at_ms = start;
                    dur_ms = finish -. start;
                    kind = Tr.Dispatch;
                    drive = d;
                    op_id = req.r_op.op_id;
                    bytes = req.r_bytes;
                  };
                let extra = finish -. served in
                if extra > 0. then
                  Sink.event sink
                    {
                      Tr.at_ms = served;
                      dur_ms = extra;
                      kind = Tr.Media;
                      drive = d;
                      op_id = req.r_op.op_id;
                      bytes = 0;
                    }
              end);
          req.r_start <- start;
          req.r_finish <- finish;
          (* A stall left the drive's clock box and the completion time
             one box in the record layout. *)
          if t.media_on then t.busy_box.(d) <- Some req.r_finish;
          if start < req.r_op.began then req.r_op.began <- start;
          if not req.r_parity then t.bytes_moved <- t.bytes_moved + req.r_bytes;
          t.in_service.(d) <- Some req;
          db_grow t (t.db_len + 1);
          let i = t.db_len in
          t.db_drive.(i) <- d;
          t.db_op_id.(i) <- req.r_op.op_id;
          t.db_started.(i) <- start;
          t.db_finished.(i) <- finish;
          t.db_bytes.(i) <- req.r_bytes;
          t.db_parity.(i) <- req.r_parity;
          t.db_len <- i + 1
    end

let dispatched_len t = t.db_len
let dispatched_op_id t i = t.db_op_id.(i)
let dispatched_drive t i = t.db_drive.(i)
let dispatched_started t i = t.db_started.(i)
let dispatched_finished t i = t.db_finished.(i)
let dispatched_bytes t i = t.db_bytes.(i)
let dispatched_parity t i = t.db_parity.(i)

(* Enqueue the buffered chunks as one operation and start every idle
   drive that received work; started requests land in the dispatch
   buffer in first-touch drive order. *)
let submit_buf t ~now =
  let op =
    {
      op_id = t.next_op_id;
      submitted = now;
      chunks_left = t.cb_len;
      began = infinity;
      last_finish = now;
      o_bytes = 0;
      o_obs = None;
    }
  in
  (match t.obs with
  | None -> ()
  | Some _ ->
      op.o_obs <- Some { ob_seek = 0.; ob_rotation = 0.; ob_transfer = 0.; ob_penalty = 0. });
  t.next_op_id <- t.next_op_id + 1;
  t.touched_len <- 0;
  for i = 0 to t.cb_len - 1 do
    let disk = t.cb_disk.(i) in
    let offset = t.cb_offset.(i) in
    let bytes = t.cb_bytes.(i) in
    let parity = t.cb_parity.(i) in
    let cylinder = Geometry.cylinder_of_offset (Drive.geometry t.drives.(disk)) offset in
    let req =
      {
        r_op = op;
        r_offset = offset;
        r_bytes = bytes;
        r_parity = parity;
        r_passes = (if t.cb_rmw.(i) then 2 else 1);
        r_start = now;
        r_finish = now;
      }
    in
    if not parity then op.o_bytes <- op.o_bytes + bytes;
    Squeue.add t.queues.(disk) ~cylinder req;
    if not t.touched_mark.(disk) then begin
      t.touched_mark.(disk) <- true;
      t.touched.(t.touched_len) <- disk;
      t.touched_len <- t.touched_len + 1
    end
  done;
  for i = 0 to t.touched_len - 1 do
    t.touched_mark.(t.touched.(i)) <- false
  done;
  (match t.obs with
  | None -> ()
  | Some sink ->
      (* Sample each touched drive's depth at submission, before the
         idle-drive dispatch below pops the head request. *)
      for i = 0 to t.touched_len - 1 do
        let d = t.touched.(i) in
        Sink.record_queue_depth sink ~drive:d ~depth:(load t d)
      done;
      if Sink.tracing sink then
        Sink.event sink
          {
            Tr.at_ms = now;
            dur_ms = 0.;
            kind = Tr.Arrival;
            drive = -1;
            op_id = op.op_id;
            bytes = op.o_bytes;
          });
  t.db_len <- 0;
  for i = 0 to t.touched_len - 1 do
    dispatch_push t t.touched.(i) ~now
  done;
  op

let submit_runs t ~now ~kind runs =
  gen_runs t ~queued:true ~kind runs;
  submit_buf t ~now

(* List-building wrapper kept for tests and offline tools; the engine
   uses {!submit_runs} plus the dispatch-buffer accessors. *)
let dispatched_list t =
  List.init t.db_len (fun i ->
      {
        d_drive = t.db_drive.(i);
        d_op_id = t.db_op_id.(i);
        d_started = t.db_started.(i);
        d_finished = t.db_finished.(i);
        d_bytes = t.db_bytes.(i);
        d_parity = t.db_parity.(i);
      })

let submit t ~now ~kind ~extents =
  Runs.set_list t.list_runs extents;
  let op = submit_runs t ~now ~kind t.list_runs in
  (op, dispatched_list t)

let complete_flat t ~drive =
  match t.in_service.(drive) with
  | None ->
      invalid_arg
        (Printf.sprintf
           "Array_model.complete: drive %d has nothing in service (queue depth %d)" drive
           (Squeue.length t.queues.(drive)))
  | Some req ->
      t.in_service.(drive) <- None;
      let op = req.r_op in
      op.chunks_left <- op.chunks_left - 1;
      if req.r_finish > op.last_finish then op.last_finish <- req.r_finish;
      t.db_len <- 0;
      dispatch_push t drive ~now:req.r_finish;
      op

let complete t ~drive =
  let op = complete_flat t ~drive in
  let next = match dispatched_list t with [] -> None | d :: _ -> Some d in
  ({ c_op = op; c_op_done = op.chunks_left = 0 }, next)

let pending t ~drive = load t drive

(* ------------------------------------------------------------------ *)
(* Drive failure, repair and online rebuild                            *)

let check_drive t drive =
  if drive < 0 || drive >= disks t then
    invalid_arg (Printf.sprintf "Array_model: drive %d of %d" drive (disks t))

let fail_drive t ~drive =
  check_drive t drive;
  Fault.fail t.fault ~drive

let repair_drive t ~drive =
  check_drive t drive;
  (* A non-redundant layout has nothing to reconstruct from: the drive
     returns to service immediately (its old contents were already
     reported lost); redundant layouts enter the rebuild sweep. *)
  let rebuild = match t.config with Striped _ -> false | _ -> true in
  Fault.repair t.fault ~drive ~rebuild

let drive_state t ~drive =
  check_drive t drive;
  match Fault.status t.fault ~drive with
  | Fault.Healthy -> `Healthy
  | Fault.Failed -> `Failed
  | Fault.Rebuilding r -> `Rebuilding (float_of_int r.pos /. float_of_int (drive_capacity t))

(* The drives a rebuild of [drive] reconstructs from. *)
let rebuild_sources t ~drive =
  match t.config with
  | Striped _ -> []
  | Mirrored _ -> [ drive lxor 1 ]
  | Raid5 _ | Parity_striped -> List.filter (fun d -> d <> drive) t.all_drives

type rebuild_step =
  | Rebuild_idle
  | Rebuild_blocked
  | Rebuild_done
  | Rebuild_sync of float
  | Rebuild_queued of op

let rebuild_step t ~now ~queued ~drive =
  check_drive t drive;
  match Fault.status t.fault ~drive with
  | Fault.Healthy | Fault.Failed -> Rebuild_idle
  | Fault.Rebuilding r ->
      if r.pos >= drive_capacity t then begin
        Fault.finish_rebuild t.fault ~drive;
        Rebuild_done
      end
      else begin
        let pos = r.pos in
        let bytes =
          min (Fault.config t.fault).Fault_plan.rebuild_chunk_bytes (drive_capacity t - pos)
        in
        let sources = rebuild_sources t ~drive in
        if sources = [] then begin
          Fault.finish_rebuild t.fault ~drive;
          Rebuild_done
        end
        else if
          List.exists
            (fun s -> not (Fault.readable t.fault ~drive:s ~offset:pos ~bytes))
            sources
        then Rebuild_blocked
        else begin
          (* Read the region from every redundancy-group member still
             standing, write the reconstruction to the returning drive.
             All of it is redundancy traffic — rebuild I/O never counts
             as data throughput, but it competes for the arms. *)
          t.cb_len <- 0;
          List.iter
            (fun s -> cb_push t ~disk:s ~offset:pos ~bytes ~parity:true ~rmw:false)
            sources;
          cb_push t ~disk:drive ~offset:pos ~bytes ~parity:true ~rmw:false;
          Fault.rebuild_advance t.fault ~drive ~bytes;
          if queued then Rebuild_queued (submit_buf t ~now)
          else begin
            perform_buf t ~now;
            Rebuild_sync t.window.(1)
          end
        end
      end

let time_of t ~kind ~extents =
  let geometries = Array.to_list (Array.map Drive.geometry t.drives) in
  let scratch = create_mixed ~seed:0 ~geometries t.config in
  access scratch ~now:0. ~kind ~extents

let utilization t ~now =
  if now <= 0. then 0.
  else begin
    let busy = Array.fold_left (fun acc d -> acc +. (Drive.stats d).Drive.busy_ms) 0. t.drives in
    busy /. (now *. float_of_int (disks t))
  end

let bytes_moved t = t.bytes_moved

(* Checkpoint.  Drives, dispatch queues and in-service slots go in ONE
   Marshal blob: queued requests share their [op] records (and an
   in-service request shares its op with still-queued siblings), and
   Marshal preserves sharing within a single blob, so completions after
   restore decrement the same [chunks_left] the originals did.  The
   engine references operations only by integer id, never by pointer,
   so rebuilt op records need no external fix-up.  The fault state is
   checkpointed separately ({!Fault.ckpt_save}); the scratch buffers
   are dead between events and simply reset. *)
let ckpt_save t =
  let save d drive =
    match t.busy_box.(d) with
    | Some b when b = (Drive.clock drive).(Drive.busy_slot) -> Drive.save ~busy_until:b drive
    | Some _ | None -> Drive.save drive
  in
  Marshal.to_string
    ( Array.mapi save t.drives,
      Rofs_util.Rng.save t.rng,
      t.bytes_moved,
      t.queues,
      t.in_service,
      t.next_op_id )
    []

let ckpt_load t blob =
  let drives, rng, bytes_moved, queues, in_service, next_op_id =
    (Marshal.from_string blob 0
      : Drive.saved array * Rofs_util.Rng.state * int * req Squeue.t array * req option array * int)
  in
  Array.iteri
    (fun i d ->
      Drive.restore ~dst:t.drives.(i) d;
      t.busy_box.(i) <- (if t.media_on then Some (Drive.saved_busy_until d) else None))
    drives;
  Rofs_util.Rng.restore ~dst:t.rng rng;
  t.bytes_moved <- bytes_moved;
  Array.iteri (fun i q -> t.queues.(i) <- q) queues;
  Array.blit in_service 0 t.in_service 0 (Array.length t.in_service);
  t.next_op_id <- next_op_id;
  t.cb_len <- 0;
  t.db_len <- 0;
  t.touched_len <- 0;
  Array.fill t.touched_mark 0 (Array.length t.touched_mark) false

let reset t =
  Array.iter Drive.reset t.drives;
  Array.iter Squeue.clear t.queues;
  Array.fill t.in_service 0 (Array.length t.in_service) None;
  Array.fill t.busy_box 0 (Array.length t.busy_box) None;
  t.cb_len <- 0;
  t.db_len <- 0;
  t.touched_len <- 0;
  Array.fill t.touched_mark 0 (Array.length t.touched_mark) false;
  t.bytes_moved <- 0

let drive_stats t = Array.map Drive.stats t.drives
let drive_busy_until t ~drive = Drive.busy_until t.drives.(drive)

let pp_config ppf = function
  | Striped { stripe_unit } ->
      Format.fprintf ppf "striped (stripe unit %a)" Rofs_util.Units.pp_bytes stripe_unit
  | Mirrored { stripe_unit } ->
      Format.fprintf ppf "mirrored (stripe unit %a)" Rofs_util.Units.pp_bytes stripe_unit
  | Raid5 { stripe_unit } ->
      Format.fprintf ppf "RAID-5 (stripe unit %a)" Rofs_util.Units.pp_bytes stripe_unit
  | Parity_striped -> Format.fprintf ppf "parity striped"
