(** Deterministic pseudo-random number generation.

    All stochastic behaviour in the simulator flows through a value of type
    {!t} so that every experiment is reproducible from its seed.  The
    generator is xoshiro256**, which is fast, has a 256-bit state and passes
    the usual statistical batteries; determinism across platforms matters
    more here than cryptographic quality. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] builds a generator whose stream is a pure function of
    [seed].  Two generators created with the same seed produce identical
    streams. *)

val copy : t -> t
(** [copy t] is an independent generator starting from [t]'s current
    state. *)

type state = { s0 : int64; s1 : int64; s2 : int64; s3 : int64 }
(** The four state words as a plain record: the checkpoint form.  Its
    marshalled bytes are those of the record the generator itself was
    before its state moved into unboxed storage, so snapshots keep their
    bytes and old snapshots still load. *)

val save : t -> state
(** [save t] is [t]'s current state. *)

val restore : dst:t -> state -> unit
(** [restore ~dst s] overwrites [dst]'s state with [s] in place, so
    every alias of [dst] continues the stream from [s].  This is the
    checkpoint-restore primitive: engine subsystems hold references to
    their generators, and restoring must not replace the value they
    share. *)

val derive_seed : seed:int -> stream:int -> int
(** [derive_seed ~seed ~stream] maps a (seed, stream-index) pair to a
    fresh positive seed, a pure function of both arguments.  Used by the
    sharded engine to give each shard its own decorrelated stream while
    the whole family remains a function of the run's single seed. *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t].  Streams of
    the parent and child are (statistically) independent; used to give each
    file type its own stream so adding one file type does not perturb the
    draws seen by another. *)

val bits64 : t -> int64
(** Next raw 64-bit output word.  The [int64] result is boxed; hot
    paths use the typed draws below. *)

val bits53 : t -> int
(** The 53 high bits of the next output word, as a non-negative int.
    [float t] is [float_of_int (bits53 t) *. 0x1.0p-53] exactly; callers
    that scale the draw compute it themselves, so no float crosses the
    module boundary boxed. *)

val float : t -> float
(** [float t] is uniform in [\[0, 1)]. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)].  Requires [n > 0]. *)

val int_in : t -> lo:int -> hi:int -> int
(** [int_in t ~lo ~hi] is uniform in [\[lo, hi\]] inclusive.  Requires
    [lo <= hi]. *)

val bool : t -> bool
(** Fair coin flip. *)
