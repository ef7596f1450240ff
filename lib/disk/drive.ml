type stats = {
  requests : int;
  bytes_moved : int;
  seeks : int;
  busy_ms : float;
  seek_ms : float;
  rotation_ms : float;
  transfer_ms : float;
}

(* Clock slots.  The clocks live in a plain float array: stores into it
   never allocate, where a mutable float field of this mixed record would
   box on every store, and results handed back through it cross the
   module boundary unboxed (a float return would box). *)
let busy_slot = 0
let busy_ms_slot = 1
let done_slot = 2
let start_slot = 3
let time_slot = 4

type t = {
  geometry : Geometry.t;
  mutable head_cylinder : int;
  mutable next_sequential : int;  (** byte offset one past the last transfer; -1 if none *)
  mutable requests : int;
  mutable bytes_moved : int;
  mutable seeks : int;
  clock : float array;  (** see the slots above *)
  (* Busy-time decomposition, also plain float arrays.  [comp]
     accumulates across the drive's lifetime; [scratch] holds the split
     of the most recent [duration] computation.  Slots: 0 seek,
     1 rotation, 2 transfer. *)
  comp : float array;
  scratch : float array;
  mutable last_distance : int;  (** cylinders moved by the last reposition; 0 otherwise *)
  mutable repositioned : bool;  (** the last [duration] paid a full seek *)
}

(* The checkpoint form: the field layout [t] had while its clocks were
   record fields, so snapshots keep their bytes and old ones still load. *)
type saved = {
  sv_geometry : Geometry.t;
  sv_head_cylinder : int;
  sv_busy_until : float;
  sv_next_sequential : int;
  sv_requests : int;
  sv_bytes_moved : int;
  sv_seeks : int;
  sv_busy_ms : float;
  sv_comp : float array;
  sv_scratch : float array;
  sv_last_distance : int;
  sv_repositioned : bool;
}

let create geometry =
  {
    geometry;
    head_cylinder = 0;
    next_sequential = -1;
    requests = 0;
    bytes_moved = 0;
    seeks = 0;
    clock = Array.make 5 0.;
    comp = Array.make 3 0.;
    scratch = Array.make 3 0.;
    last_distance = 0;
    repositioned = false;
  }

let geometry t = t.geometry
let clock t = t.clock
let busy_until t = t.clock.(busy_slot)
let head_cylinder t = t.head_cylinder
let next_sequential t = t.next_sequential

(* Duration of a transfer, left in [clock.(time_slot)]; whether it paid
   a seek/latency lands in [t.repositioned].  Seek and transfer times
   are computed here rather than through [Geometry]'s float-returning
   functions (same expressions, same bits), so nothing boxes.  Pure in
   [t]'s busy clock so that [service_time_ms] can share it. *)
let duration t ~rng ~offset ~bytes =
  let g = t.geometry in
  assert (bytes >= 0 && offset >= 0 && offset + bytes <= Geometry.capacity_bytes g);
  t.scratch.(0) <- 0.;
  t.scratch.(1) <- 0.;
  t.scratch.(2) <- 0.;
  t.last_distance <- 0;
  t.repositioned <- false;
  if bytes = 0 then t.clock.(time_slot) <- 0.
  else begin
    let first_cyl = Geometry.cylinder_of_offset g offset in
    let last_cyl = Geometry.cylinder_of_offset g (offset + bytes - 1) in
    let gap = if t.next_sequential < 0 then -1 else offset - t.next_sequential in
    let track = float_of_int g.Geometry.track_bytes in
    (* Three positioning regimes:
       - exact sequential continuation: free — the heads are already
         there ("rotationally optimal" layout);
       - a short forward skip (under a cylinder): the platter simply
         rotates over the skipped sectors — this is what reading past a
         RAID-5 parity unit or a small hole in a file costs;
       - anything else: a real seek plus rotational latency.
       Cylinder crossings always pay the track-to-track seek — including
       the boundary between this transfer and the previous one — which
       bounds streaming at the drive's sustained rate rather than its
       raw media rate. *)
    let crossings =
      if gap = 0 then last_cyl - t.head_cylinder
      else if gap > 0 && gap < Geometry.cylinder_bytes g then begin
        t.scratch.(1) <- g.Geometry.rotation_ms *. float_of_int gap /. track;
        last_cyl - t.head_cylinder
      end
      else begin
        let distance = abs (first_cyl - t.head_cylinder) in
        if distance > 0 then
          t.scratch.(0) <-
            g.Geometry.single_track_seek_ms
            +. (float_of_int distance *. g.Geometry.seek_incremental_ms);
        t.scratch.(1) <-
          float_of_int (Rofs_util.Rng.bits53 rng) *. 0x1.0p-53 *. g.Geometry.rotation_ms;
        t.last_distance <- distance;
        t.repositioned <- true;
        last_cyl - first_cyl
      end
    in
    (* After the branch, scratch.(0)/(1) hold exactly the arm and
       rotation costs it charged, so their sum is the position cost —
       no tuple threads the pair out. *)
    let position_cost = t.scratch.(0) +. t.scratch.(1) in
    let crossing_cost = float_of_int crossings *. g.Geometry.single_track_seek_ms in
    let transfer = g.Geometry.rotation_ms *. float_of_int bytes /. track in
    t.scratch.(0) <- t.scratch.(0) +. crossing_cost;
    t.scratch.(2) <- transfer;
    t.clock.(time_slot) <- position_cost +. crossing_cost +. transfer
  end

let service_time_ms t ~rng ~offset ~bytes =
  duration t ~rng ~offset ~bytes;
  t.clock.(time_slot)

let issue t ~now ~rng ~offset ~bytes =
  duration t ~rng ~offset ~bytes;
  let c = t.clock in
  let time = c.(time_slot) in
  (* [Float.max now busy_until], written out so nothing boxes; clocks
     are never NaN or -0. *)
  let start = if c.(busy_slot) > now then c.(busy_slot) else now in
  let finish = start +. time in
  c.(start_slot) <- start;
  c.(done_slot) <- finish;
  c.(busy_slot) <- finish;
  if bytes > 0 then begin
    t.head_cylinder <- Geometry.cylinder_of_offset t.geometry (offset + bytes - 1);
    t.next_sequential <- offset + bytes;
    t.requests <- t.requests + 1;
    t.bytes_moved <- t.bytes_moved + bytes;
    if t.repositioned then t.seeks <- t.seeks + 1;
    c.(busy_ms_slot) <- c.(busy_ms_slot) +. time;
    t.comp.(0) <- t.comp.(0) +. t.scratch.(0);
    t.comp.(1) <- t.comp.(1) +. t.scratch.(1);
    t.comp.(2) <- t.comp.(2) +. t.scratch.(2)
  end

let access t ~now ~rng ~offset ~bytes =
  issue t ~now ~rng ~offset ~bytes;
  t.clock.(done_slot)

let stall t ~ms =
  if ms < 0. then invalid_arg "Drive.stall: negative duration";
  let c = t.clock in
  if ms > 0. then begin
    c.(busy_slot) <- c.(busy_slot) +. ms;
    c.(busy_ms_slot) <- c.(busy_ms_slot) +. ms
  end;
  c.(done_slot) <- c.(busy_slot)

let serve t ~now ~rng ~offset ~bytes ~passes =
  if passes < 1 then invalid_arg "Drive.serve: passes < 1";
  (* Each pass runs through [issue] so the positioning regimes (and
     their statistics) match the FCFS path exactly; the second pass of a
     read-modify-write re-targets the same bytes and therefore pays a
     full reposition, as it does there.  Later passes start at the
     previous one's completion, which is past [now]. *)
  issue t ~now ~rng ~offset ~bytes;
  let start = t.clock.(start_slot) in
  for _ = 2 to passes do
    issue t ~now ~rng ~offset ~bytes
  done;
  t.clock.(start_slot) <- start

let stats t =
  {
    requests = t.requests;
    bytes_moved = t.bytes_moved;
    seeks = t.seeks;
    busy_ms = t.clock.(busy_ms_slot);
    seek_ms = t.comp.(0);
    rotation_ms = t.comp.(1);
    transfer_ms = t.comp.(2);
  }

let seek_ms_total t = t.comp.(0)
let rotation_ms_total t = t.comp.(1)
let transfer_ms_total t = t.comp.(2)
let last_seek_cylinders t = t.last_distance

let reset t =
  t.head_cylinder <- 0;
  t.next_sequential <- -1;
  t.requests <- 0;
  t.bytes_moved <- 0;
  t.seeks <- 0;
  Array.fill t.clock 0 (Array.length t.clock) 0.;
  t.comp.(0) <- 0.;
  t.comp.(1) <- 0.;
  t.comp.(2) <- 0.;
  t.scratch.(0) <- 0.;
  t.scratch.(1) <- 0.;
  t.scratch.(2) <- 0.;
  t.last_distance <- 0;
  t.repositioned <- false

(* A clock still at zero (untouched since [create] or [reset]; every
   transfer takes time) held the literal [0.] in the record layout, one
   shared box that Marshal writes once.  Boxing it the same way keeps the
   snapshot bytes. *)
let zero = 0.
let[@inline never] boxed v = if v = 0. then zero else v

let save ?busy_until t =
  {
    sv_geometry = t.geometry;
    sv_head_cylinder = t.head_cylinder;
    sv_busy_until =
      (match busy_until with
      | Some b when b <> 0. -> b
      | Some _ | None -> boxed t.clock.(busy_slot));
    sv_next_sequential = t.next_sequential;
    sv_requests = t.requests;
    sv_bytes_moved = t.bytes_moved;
    sv_seeks = t.seeks;
    sv_busy_ms = boxed t.clock.(busy_ms_slot);
    sv_comp = t.comp;
    sv_scratch = t.scratch;
    sv_last_distance = t.last_distance;
    sv_repositioned = t.repositioned;
  }

let saved_busy_until s = s.sv_busy_until

let restore ~dst s =
  dst.head_cylinder <- s.sv_head_cylinder;
  dst.next_sequential <- s.sv_next_sequential;
  dst.requests <- s.sv_requests;
  dst.bytes_moved <- s.sv_bytes_moved;
  dst.seeks <- s.sv_seeks;
  Array.fill dst.clock 0 (Array.length dst.clock) 0.;
  dst.clock.(busy_slot) <- s.sv_busy_until;
  dst.clock.(busy_ms_slot) <- s.sv_busy_ms;
  Array.blit s.sv_comp 0 dst.comp 0 3;
  Array.blit s.sv_scratch 0 dst.scratch 0 3;
  dst.last_distance <- s.sv_last_distance;
  dst.repositioned <- s.sv_repositioned
