(** The common face of an allocation policy.

    Each policy (buddy, restricted buddy, extent-based, fixed-block)
    exposes a value of this record type so the simulator can drive any of
    them through one interface.  All sizes are in the policy's disk
    units; {!val-units_of_bytes} / {!val-bytes_of_units} convert.

    Semantics shared by all policies:
    {ul
    {- [create_file] registers a file (with an allocation-size hint used
       by the extent policy and a descriptor-placement hook used by the
       clustered restricted buddy);}
    {- [ensure ~file ~target] grows the file's {e allocated} size until
       it is at least [target] units, in policy-sized pieces.  Policies
       may overshoot (that overshoot is the internal fragmentation the
       paper measures).  On [Error `Disk_full] the space allocated before
       the failure is kept;}
    {- [shrink_to ~file ~target] frees whole trailing extents while the
       allocation stays at or above [target];}
    {- [delete] frees everything and forgets the file.}} *)

type churn_stats = {
  cs_user_units : int;
      (** Units appended on behalf of user growth ([ensure]) since the
          policy was created (or its counters were last restored). *)
  cs_moved_units : int;
      (** Units of {e live} data the policy relocated internally —
          today only the log-structured cleaner moves data; every other
          policy reports 0. *)
  cs_cleaner_passes : int;
      (** Number of successful cleaner passes (segments reclaimed). *)
}

val no_churn : churn_stats
(** All-zero counters — what policies without internal data movement
    start from. *)

val write_cost : churn_stats -> float
(** Write cost per user byte:
    [(user + moved) / user], the classic LFS cleaner-overhead metric.
    [1.0] when no user data has been written yet. *)

type t = {
  name : string;
  unit_bytes : int;  (** bytes per disk unit *)
  total_units : int;  (** size of the managed address space *)
  create_file : file:int -> hint:int -> unit;
      (** [hint] is the file type's mean allocation size in units. *)
  file_exists : file:int -> bool;
  ensure : file:int -> target:int -> (unit, [ `Disk_full ]) result;
  shrink_to : file:int -> target:int -> unit;
  delete : file:int -> unit;
  allocated_units : file:int -> int;
  extent_count : file:int -> int;
  extents : file:int -> Extent.t list;
  slice : file:int -> off:int -> len:int -> Rofs_util.Runs.t;
      (** Physical [(addr, len)] runs backing logical units
          [off..off+len), in a buffer the policy owns and refills on
          the next call. *)
  free_units : unit -> int;
  largest_free : unit -> int;
      (** Largest contiguous piece the policy could hand out right now. *)
  free_hist : unit -> (int * int) list;
      (** Snapshot of the free-space size distribution as
          [(size_units, count)] pairs, strictly ascending in size, every
          count positive, with [sum (size * count) = free_units ()].
          Cheap — O(distinct sizes) for the list-structured policies,
          a sort of the free extents' lengths for the extent tree — so
          the telemetry layer can sample it every window. *)
  churn_stats : unit -> churn_stats;
      (** Cumulative allocator-internal write accounting (user-driven
          appends vs. data the policy moved on its own), feeding the
          write-cost-per-byte metric.  Counters survive checkpoints. *)
  ckpt_save : unit -> string;
      (** Opaque serialization of the policy's complete mutable state
          (free structures, per-file extent maps, internal RNG streams),
          for checkpointing.  Loading the string back with {!ckpt_load}
          on a policy built from the same config restores behaviour bit
          for bit — including iteration order of any internal hash
          tables whose fold order shapes allocation decisions. *)
  ckpt_load : string -> unit;
      (** Restore state produced by this policy shape's [ckpt_save],
          mutating in place.  Feeding it a blob from a different policy
          or config is undefined (the engine guards against this with a
          config fingerprint before calling). *)
}

val used_units : t -> int
(** [total_units - free_units ()]. *)

val utilization : t -> float
(** Fraction of the address space currently allocated. *)

val units_of_bytes : t -> int -> int
(** Bytes rounded {e up} to whole units (at least 1 for positive
    sizes). *)

val bytes_of_units : t -> int -> int
