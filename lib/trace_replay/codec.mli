(** Compact binary encoding of operation traces.

    The text format ({!Rofs_workload.Trace}) is diff-friendly but a
    genuine trace runs to millions of events; this codec stores the same
    data length-prefixed and varint-packed, typically 2-3x smaller and
    parsed without any line splitting.

    Layout: the 4-byte magic ["ROFT"], one version byte, the trace name
    (varint length + bytes), the initial population (varint count, then
    id / bytes / hint / type varints per file), and the events (varint
    count, then per event: the time as 8 little-endian bytes of
    [Int64.bits_of_float] — floats round-trip exactly — a varint file
    id, a tag byte, and the op's varint arguments).  Integers are
    zigzag-LEB128 so the format is byte-cheap for the small
    non-negative values that dominate real traces.

    [encode]/[decode] are exact inverses on any structurally valid
    trace; [decode] checks structure (magic, version, tags, truncation)
    but does not semantically validate — callers wanting
    {!Rofs_workload.Trace.validate} run it themselves, as {!load_file}
    does. *)

val magic : string
(** ["ROFT"]. *)

val version : int

val encode : Rofs_workload.Trace.t -> string

val decode : string -> (Rofs_workload.Trace.t, string) result
(** Structural inverse of {!encode}; descriptive error on bad magic,
    unsupported version, unknown tag or truncated input. *)

val is_binary : string -> bool
(** Content sniff: does this buffer (or its first bytes) start with the
    magic? *)

val binary_path : string -> bool
(** Filename convention: [.bin] / [.rtb] extensions select the binary
    format for {!save_file}. *)

val save_file : string -> Rofs_workload.Trace.t -> unit
(** Write [trace] to a path: binary when {!binary_path} says so, the
    text format otherwise. *)

val load_file : string -> (Rofs_workload.Trace.t, string) result
(** Read a trace from a path, sniffing the magic to pick the decoder
    (the extension is not trusted on input), then semantically
    validate. *)
