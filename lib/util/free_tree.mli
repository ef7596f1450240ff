(** Address-ordered map of free extents with logarithmic first-fit.

    An AVL tree keyed on extent start address, carrying extent length,
    augmented with each subtree's maximum length.  The augmentation lets
    {!first_fit} (lowest-addressed extent at least a given size — the
    classic first-fit rule) prune whole subtrees, making it O(log n)
    where a scan over an address-ordered list would be O(n).

    The tree stores extents as given; callers wanting coalescing look up
    neighbours with {!pred}/{!succ} and re-insert or {!rekey} merged
    extents.

    Mutable and array-backed: {!insert}, {!remove} and the queries
    allocate nothing (the arrays double when full; removed nodes are
    reused).  Queries return a {e node}, an index read with {!addr} and
    {!len}; [0] means none.  A node is valid only until the next
    {!insert}, {!remove} or {!clear}.  A tree must not be shared between
    domains. *)

type t

val create : unit -> t
(** An empty tree. *)

val clear : t -> unit
(** Remove every extent, keeping the arrays for reuse. *)

val is_empty : t -> bool
val cardinal : t -> int

val total_len : t -> int
(** Sum of the lengths of all extents (maintained, O(1)). *)

val max_len : t -> int
(** Largest extent length, [0] when empty. *)

val addr : t -> int -> int
(** Start address of a node returned by a query. *)

val len : t -> int -> int
(** Length of a node returned by a query. *)

val mem : t -> addr:int -> bool

val find : t -> addr:int -> int
(** The node keyed exactly at [addr], or [0]. *)

val insert : t -> addr:int -> len:int -> unit
(** Requires [len > 0] and no extent already keyed at [addr] (raises
    [Invalid_argument], leaving the tree unchanged, otherwise).  Does
    not check for overlap — the allocator's coalescing discipline
    guarantees it. *)

val rekey : t -> addr:int -> new_addr:int -> len:int -> unit
(** Replace the extent keyed at [addr] by [(new_addr, len)] in place: one
    descent, where {!remove} then {!insert} would take two and
    rebalance.  Requires [len > 0] and [new_addr] strictly between the
    neighbouring keys, so address order is kept (the order is not
    checked; {!check_invariants} reports a violation).  Raises
    [Invalid_argument] when no extent is keyed at [addr]. *)

val remove : t -> addr:int -> unit
(** No-op when [addr] is absent. *)

val pred : t -> addr:int -> int
(** Node with the greatest start address strictly below [addr], or [0]. *)

val succ : t -> addr:int -> int
(** Node with the least start address strictly above [addr], or [0]. *)

val first_fit : t -> want:int -> int
(** Lowest-addressed node with [len >= want], or [0]. *)

val first_fit_from : t -> min_addr:int -> want:int -> int
(** Lowest-addressed fit with [addr >= min_addr], or [0]. *)

val iter : t -> (addr:int -> len:int -> unit) -> unit
(** In increasing address order. *)

val to_list : t -> (int * int) list
(** [(addr, len)] pairs in address order. *)

val check_invariants : t -> (unit, string) result
(** Validate AVL balance, key order, augmentation and node bookkeeping
    (no node lost or reachable twice); for tests. *)
