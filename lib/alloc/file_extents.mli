(** The ordered extent list of one file.

    Every allocator keeps, per file, the sequence of extents backing the
    file's logical address space in order.  Alongside the extents a
    cumulative-length index is maintained so that mapping a logical unit
    range to physical extents ({!slice}) is a binary search — files under
    the fixed-block policy can have tens of thousands of blocks, and the
    workload issues millions of positioned reads. *)

type t

val create : unit -> t

val push : t -> Extent.t -> unit
(** Append an extent at the logical end of the file. *)

val pop : t -> Extent.t option
(** Remove and return the last extent (truncation frees whole trailing
    extents). *)

val last : t -> Extent.t option
val count : t -> int

val allocated_units : t -> int
(** Total units across all extents (O(1)). *)

val iter : t -> (Extent.t -> unit) -> unit
val to_list : t -> Extent.t list

val relocate : t -> (Extent.t -> int option) -> unit
(** [relocate t f] rewrites the {e address} of every extent for which
    [f] returns [Some addr]; lengths and order are untouched (so the
    cumulative index stays valid).  Used by the log-structured policy's
    segment cleaner, which moves live extents without resizing them. *)

val slice : t -> off:int -> len:int -> Rofs_util.Runs.t -> unit
(** [slice t ~off ~len runs] replaces the contents of [runs] with the
    physical [(addr, len)] runs covering logical units [off .. off+len),
    in logical order, with the first and last clipped to the range.  The
    range is clamped to the allocated length; [runs] is left empty when
    it lies entirely beyond it.  Allocates nothing. *)

val slicer : (int -> t) -> file:int -> off:int -> len:int -> Rofs_util.Runs.t
(** [slicer fx_of] is a policy's [slice] closure: it slices the file
    [fx_of file] into one buffer of its own and returns that buffer,
    valid until the next call. *)
