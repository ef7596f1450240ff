type churn_stats = {
  cs_user_units : int;
  cs_moved_units : int;
  cs_cleaner_passes : int;
}

let no_churn = { cs_user_units = 0; cs_moved_units = 0; cs_cleaner_passes = 0 }

let write_cost cs =
  if cs.cs_user_units = 0 then 1.0
  else
    float_of_int (cs.cs_user_units + cs.cs_moved_units)
    /. float_of_int cs.cs_user_units

type t = {
  name : string;
  unit_bytes : int;
  total_units : int;
  create_file : file:int -> hint:int -> unit;
  file_exists : file:int -> bool;
  ensure : file:int -> target:int -> (unit, [ `Disk_full ]) result;
  shrink_to : file:int -> target:int -> unit;
  delete : file:int -> unit;
  allocated_units : file:int -> int;
  extent_count : file:int -> int;
  extents : file:int -> Extent.t list;
  slice : file:int -> off:int -> len:int -> Rofs_util.Runs.t;
  free_units : unit -> int;
  largest_free : unit -> int;
  free_hist : unit -> (int * int) list;
  churn_stats : unit -> churn_stats;
  ckpt_save : unit -> string;
  ckpt_load : string -> unit;
}

let used_units t = t.total_units - t.free_units ()

let utilization t = float_of_int (used_units t) /. float_of_int t.total_units

let units_of_bytes t bytes =
  if bytes <= 0 then 0 else ((bytes - 1) / t.unit_bytes) + 1

let bytes_of_units t units = units * t.unit_bytes
