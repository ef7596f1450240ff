module IntSet = Set.Make (Int)

type config = { unit_bytes : int; max_extent_bytes : int }

let default_config = { unit_bytes = 1024; max_extent_bytes = 1024 * 1024 * 1024 }

type file = { fx : File_extents.t }

type t = {
  total_units : int;
  max_order : int;
  free : IntSet.t array;  (** free.(k): start addresses of free 2^k-unit blocks *)
  mutable free_units : int;
  files : (int, file) Hashtbl.t;
  mutable user_units : int;  (** units handed out for user growth *)
}

let order_size k = 1 lsl k

let rec log2_ceil n = if n <= 1 then 0 else 1 + log2_ceil ((n + 1) / 2)

(* Seed the free lists with the greedy aligned power-of-two decomposition
   of [0, total): repeatedly take the largest block (<= max order) that
   is aligned at the current address and fits. *)
let seed t =
  let rec place addr =
    if addr < t.total_units then begin
      let rec pick k =
        let s = order_size k in
        if k > 0 && (addr mod s <> 0 || addr + s > t.total_units) then pick (k - 1) else k
      in
      let k = pick t.max_order in
      t.free.(k) <- IntSet.add addr t.free.(k);
      place (addr + order_size k)
    end
  in
  place 0;
  t.free_units <- t.total_units

let create config ~total_units =
  if config.unit_bytes <= 0 || total_units <= 0 then invalid_arg "Buddy.create";
  let cap_units = config.max_extent_bytes / config.unit_bytes in
  if cap_units <= 0 || cap_units land (cap_units - 1) <> 0 then
    invalid_arg "Buddy.create: max extent must be a power-of-two multiple of the unit";
  let max_order = log2_ceil cap_units in
  let t =
    {
      total_units;
      max_order;
      free = Array.make (max_order + 1) IntSet.empty;
      free_units = 0;
      files = Hashtbl.create 256;
      user_units = 0;
    }
  in
  seed t;
  let the_file file =
    (* [find], not [find_opt]: no option is allocated per lookup. *)
    match Hashtbl.find t.files file with
    | f -> f
    | exception Not_found -> invalid_arg "Buddy: unknown file"
  in
  (* Take a block of exactly order [k], splitting a larger one if needed.
     [prefer] is an address whose block, if free at order [k], is taken
     first (contiguity with the file's previous extent). *)
  let rec take_order k ~prefer =
    if k > t.max_order then None
    else if prefer >= 0 && IntSet.mem prefer t.free.(k) then begin
      t.free.(k) <- IntSet.remove prefer t.free.(k);
      Some prefer
    end
    else begin
      match IntSet.min_elt_opt t.free.(k) with
      | Some addr ->
          t.free.(k) <- IntSet.remove addr t.free.(k);
          Some addr
      | None -> begin
          (* Split one block of the next order up: lower half is returned,
             upper half becomes free at order k. *)
          match take_order (k + 1) ~prefer:(-1) with
          | None -> None
          | Some addr ->
              t.free.(k) <- IntSet.add (addr + order_size k) t.free.(k);
              Some addr
        end
    end
  in
  let allocate_block k ~prefer =
    match take_order k ~prefer with
    | None -> None
    | Some addr ->
        t.free_units <- t.free_units - order_size k;
        Some addr
  in
  (* Eager buddy coalescing: while our buddy at this order is free, merge
     upward.  Blocks in the free sets are always size-aligned, so the
     xor rule identifies the buddy. *)
  let rec free_block addr k =
    let s = order_size k in
    let buddy = addr lxor s in
    if k < t.max_order && IntSet.mem buddy t.free.(k) then begin
      t.free.(k) <- IntSet.remove buddy t.free.(k);
      free_block (min addr buddy) (k + 1)
    end
    else t.free.(k) <- IntSet.add addr t.free.(k)
  in
  let release addr k =
    free_block addr k;
    t.free_units <- t.free_units + order_size k
  in
  let create_file ~file ~hint:_ =
    if Hashtbl.mem t.files file then invalid_arg "Buddy: duplicate file";
    Hashtbl.replace t.files file { fx = File_extents.create () }
  in
  let allocated ~file = File_extents.allocated_units (the_file file).fx in
  (* Koch's rule: the next extent doubles the file's current allocation;
     the first extent is one unit; extents never exceed the cap. *)
  let next_extent_units current =
    if current = 0 then 1 else min current cap_units
  in
  let ensure ~file ~target =
    let f = the_file file in
    let rec grow () =
      let current = File_extents.allocated_units f.fx in
      if current >= target then Ok ()
      else begin
        let want = next_extent_units current in
        let k = log2_ceil want in
        let prefer =
          match File_extents.last f.fx with
          | Some e when Extent.end_ e mod order_size k = 0 -> Extent.end_ e
          | Some _ | None -> -1
        in
        match allocate_block k ~prefer with
        | None -> Error `Disk_full
        | Some addr ->
            File_extents.push f.fx (Extent.make ~addr ~len:(order_size k));
            t.user_units <- t.user_units + order_size k;
            grow ()
      end
    in
    grow ()
  in
  let shrink_to ~file ~target =
    let f = the_file file in
    let rec drop () =
      match File_extents.last f.fx with
      | Some e when File_extents.allocated_units f.fx - e.Extent.len >= target -> begin
          match File_extents.pop f.fx with
          | Some e ->
              release e.Extent.addr (log2_ceil e.Extent.len);
              drop ()
          | None -> ()
        end
      | Some _ | None -> ()
    in
    drop ()
  in
  let delete ~file =
    let f = the_file file in
    File_extents.iter f.fx (fun e -> release e.Extent.addr (log2_ceil e.Extent.len));
    Hashtbl.remove t.files file
  in
  let largest_free () =
    let rec scan k = if k < 0 then 0 else if IntSet.is_empty t.free.(k) then scan (k - 1) else order_size k in
    scan t.max_order
  in
  let free_hist () =
    let acc = ref [] in
    for k = t.max_order downto 0 do
      let c = IntSet.cardinal t.free.(k) in
      if c > 0 then acc := (order_size k, c) :: !acc
    done;
    !acc
  in
  (* Checkpoint: free sets are functional values (assign), the file
     table is lookup-only (never folded), so re-adding its marshalled
     twin's bindings restores behaviour exactly. *)
  let ckpt_save () = Marshal.to_string (t.free, t.free_units, t.files, t.user_units) [] in
  let ckpt_load blob =
    let free, free_units, files, user_units =
      (Marshal.from_string blob 0 : IntSet.t array * int * (int, file) Hashtbl.t * int)
    in
    Array.iteri (fun i s -> t.free.(i) <- s) free;
    t.free_units <- free_units;
    Hashtbl.reset t.files;
    Hashtbl.iter (fun k v -> Hashtbl.replace t.files k v) files;
    t.user_units <- user_units
  in
  {
    Policy.name = "buddy";
    unit_bytes = config.unit_bytes;
    total_units;
    create_file;
    file_exists = (fun ~file -> Hashtbl.mem t.files file);
    ensure;
    shrink_to;
    delete;
    allocated_units = allocated;
    extent_count = (fun ~file -> File_extents.count (the_file file).fx);
    extents = (fun ~file -> File_extents.to_list (the_file file).fx);
    slice = File_extents.slicer (fun file -> (the_file file).fx);
    free_units = (fun () -> t.free_units);
    largest_free;
    free_hist;
    churn_stats = (fun () -> { Policy.no_churn with cs_user_units = t.user_units });
    ckpt_save;
    ckpt_load;
  }
