module Trace = Rofs_workload.Trace

let magic = "ROFT"
let version = 2

(* Zigzag maps small negative ints to small unsigned codes; OCaml ints
   are 63-bit, so the sign lives in bit 62. *)
let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag v = (v lsr 1) lxor (-(v land 1))

let add_varint buf n =
  let n = ref (zigzag n) in
  let fini = ref false in
  while not !fini do
    let b = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char buf (Char.chr b);
      fini := true
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done

exception Bad of string

let read_varint s pos =
  let v = ref 0 and shift = ref 0 and fini = ref false in
  while not !fini do
    if !pos >= String.length s then raise (Bad "truncated varint");
    let b = Char.code s.[!pos] in
    incr pos;
    v := !v lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b land 0x80 = 0 then fini := true
    else if !shift > 62 then raise (Bad "varint too wide")
  done;
  unzigzag !v

let read_time s pos =
  if !pos + 8 > String.length s then raise (Bad "truncated time");
  let bits = Bytes.get_int64_le (Bytes.unsafe_of_string s) !pos in
  pos := !pos + 8;
  Int64.float_of_bits bits

(* Op tag bytes; stable across versions — new ops append. *)
let tag_read = 0
and tag_write = 1
and tag_extend = 2
and tag_grow = 3
and tag_truncate = 4
and tag_delete = 5
and tag_create = 6

let encode (t : Trace.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr version);
  add_varint buf (String.length t.Trace.name);
  Buffer.add_string buf t.Trace.name;
  add_varint buf (List.length t.Trace.initial);
  List.iter
    (fun (id, bytes, hint, ty) ->
      add_varint buf id;
      add_varint buf bytes;
      add_varint buf hint;
      add_varint buf ty)
    t.Trace.initial;
  add_varint buf (List.length t.Trace.events);
  List.iter
    (fun (e : Trace.event) ->
      Buffer.add_int64_le buf (Int64.bits_of_float e.Trace.time_ms);
      add_varint buf e.Trace.file;
      let tag t = Buffer.add_char buf (Char.chr t) in
      match e.Trace.op with
      | Trace.Read { off; bytes } ->
          tag tag_read;
          add_varint buf bytes;
          add_varint buf off
      | Trace.Write { off; bytes } ->
          tag tag_write;
          add_varint buf bytes;
          add_varint buf off
      | Trace.Extend n ->
          tag tag_extend;
          add_varint buf n
      | Trace.Grow n ->
          tag tag_grow;
          add_varint buf n
      | Trace.Truncate n ->
          tag tag_truncate;
          add_varint buf n
      | Trace.Delete -> tag tag_delete
      | Trace.Create { bytes; hint; ty } ->
          tag tag_create;
          add_varint buf bytes;
          add_varint buf hint;
          add_varint buf ty)
    t.Trace.events;
  Buffer.contents buf

let is_binary s =
  String.length s >= String.length magic && String.sub s 0 (String.length magic) = magic

let binary_path path =
  Filename.check_suffix path ".bin" || Filename.check_suffix path ".rtb"

let decode s =
  try
    if not (is_binary s) then raise (Bad "bad magic");
    let pos = ref (String.length magic) in
    if !pos >= String.length s then raise (Bad "truncated header");
    let v = Char.code s.[!pos] in
    incr pos;
    if v <> version then raise (Bad (Printf.sprintf "unsupported version %d" v));
    let name_len = read_varint s pos in
    if name_len < 0 || !pos + name_len > String.length s then
      raise (Bad "truncated name");
    let name = String.sub s !pos name_len in
    pos := !pos + name_len;
    let nfiles = read_varint s pos in
    if nfiles < 0 then raise (Bad "negative file count");
    let initial = ref [] in
    for _ = 1 to nfiles do
      let id = read_varint s pos in
      let bytes = read_varint s pos in
      let hint = read_varint s pos in
      let ty = read_varint s pos in
      initial := (id, bytes, hint, ty) :: !initial
    done;
    let nevents = read_varint s pos in
    if nevents < 0 then raise (Bad "negative event count");
    let events = ref [] in
    for _ = 1 to nevents do
      let time_ms = read_time s pos in
      let file = read_varint s pos in
      if !pos >= String.length s then raise (Bad "truncated op tag");
      let tag = Char.code s.[!pos] in
      incr pos;
      let op =
        if tag = tag_read then
          let bytes = read_varint s pos in
          let off = read_varint s pos in
          Trace.Read { bytes; off }
        else if tag = tag_write then
          let bytes = read_varint s pos in
          let off = read_varint s pos in
          Trace.Write { bytes; off }
        else if tag = tag_extend then Trace.Extend (read_varint s pos)
        else if tag = tag_grow then Trace.Grow (read_varint s pos)
        else if tag = tag_truncate then Trace.Truncate (read_varint s pos)
        else if tag = tag_delete then Trace.Delete
        else if tag = tag_create then
          let bytes = read_varint s pos in
          let hint = read_varint s pos in
          let ty = read_varint s pos in
          Trace.Create { bytes; hint; ty }
        else raise (Bad (Printf.sprintf "unknown op tag %d" tag))
      in
      events := { Trace.time_ms; file; op } :: !events
    done;
    if !pos <> String.length s then raise (Bad "trailing bytes");
    Ok { Trace.name; initial = List.rev !initial; events = List.rev !events }
  with Bad msg -> Error ("binary trace: " ^ msg)

let read_all ic =
  let buf = Buffer.create 65536 in
  let chunk = Bytes.create 65536 in
  let rec go () =
    let n = input ic chunk 0 (Bytes.length chunk) in
    if n > 0 then begin
      Buffer.add_subbytes buf chunk 0 n;
      go ()
    end
  in
  go ();
  Buffer.contents buf

(* Atomic: the trace lands under a temp name and renames into place, so
   a crash mid-save never leaves a torn file where a previous good
   trace (or nothing) used to be. *)
let save_file path t =
  Rofs_ckpt.Ckpt.atomic_write path (fun oc ->
      output_string oc (if binary_path path then encode t else Trace.save t))

let load_file path =
  let ic = open_in_bin path in
  let data = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read_all ic) in
  let parsed = if is_binary data then decode data else Trace.load data in
  match parsed with
  | Error _ as e -> e
  | Ok t -> ( match Trace.validate t with Ok _ -> Ok t | Error msg -> Error msg)
