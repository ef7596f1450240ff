(** A reusable buffer of [(addr, len)] int pairs.

    The I/O path hands the runs backing one transfer from layer to layer
    in one of these instead of a list: the allocator writes a file's
    physical extents into one, the volume copies them into its own in
    bytes, and the disk array maps those to per-drive chunks.  Refilling
    a buffer allocates nothing once it has grown to the largest transfer
    seen. *)

type t

val create : unit -> t

val clear : t -> unit
(** Forget every run; the storage is kept. *)

val length : t -> int
(** Number of runs. *)

val addr : t -> int -> int
(** [addr t i] is run [i]'s address, for [0 <= i < length t]. *)

val len : t -> int -> int
(** [len t i] is run [i]'s length. *)

val push : t -> addr:int -> len:int -> unit
(** Append a run. *)

val total_len : t -> int
(** Sum of the runs' lengths. *)

val set_list : t -> (int * int) list -> unit
(** Replace the contents with the given runs, in order. *)

val to_list : t -> (int * int) list
