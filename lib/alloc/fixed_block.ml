type config = { unit_bytes : int; block_bytes : int; aged : bool }

let config ?(unit_bytes = 1024) ?(aged = true) ~block_bytes () = { unit_bytes; block_bytes; aged }

type file = { fx : File_extents.t }

let create cfg ~total_units ~rng =
  if cfg.unit_bytes <= 0 || total_units <= 0 then invalid_arg "Fixed_block.create";
  if cfg.block_bytes <= 0 || cfg.block_bytes mod cfg.unit_bytes <> 0 then
    invalid_arg "Fixed_block.create: block size must be a multiple of the unit";
  let block_units = cfg.block_bytes / cfg.unit_bytes in
  let nblocks = total_units / block_units in
  let order = Array.init nblocks (fun i -> i * block_units) in
  if cfg.aged then
    (* Fisher–Yates: an aged free list has no address locality left. *)
    for i = nblocks - 1 downto 1 do
      let j = Rofs_util.Rng.int rng (i + 1) in
      let tmp = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- tmp
    done;
  let free_list = Queue.create () in
  Array.iter (fun addr -> Queue.add addr free_list) order;
  let files : (int, file) Hashtbl.t = Hashtbl.create 256 in
  let user_units = ref 0 in
  let the_file file =
    (* [find], not [find_opt]: no option is allocated per lookup. *)
    match Hashtbl.find files file with
    | f -> f
    | exception Not_found -> invalid_arg "Fixed_block: unknown file"
  in
  let create_file ~file ~hint:_ =
    if Hashtbl.mem files file then invalid_arg "Fixed_block: duplicate file";
    Hashtbl.replace files file { fx = File_extents.create () }
  in
  let ensure ~file ~target =
    let f = the_file file in
    let rec grow () =
      if File_extents.allocated_units f.fx >= target then Ok ()
      else begin
        match Queue.take_opt free_list with
        | None -> Error `Disk_full
        | Some addr ->
            File_extents.push f.fx (Extent.make ~addr ~len:block_units);
            user_units := !user_units + block_units;
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
              Queue.add e.Extent.addr free_list;
              drop ()
          | None -> ()
        end
      | Some _ | None -> ()
    in
    drop ()
  in
  let delete ~file =
    let f = the_file file in
    File_extents.iter f.fx (fun e -> Queue.add e.Extent.addr free_list);
    Hashtbl.remove files file
  in
  (* Checkpoint: the free list's FIFO order IS the allocation order, so
     restore transfers the marshalled twin element by element (Queue
     marshalling preserves order); the file table is lookup-only. *)
  let ckpt_save () = Marshal.to_string (free_list, files, !user_units) [] in
  let ckpt_load blob =
    let twin_free, twin_files, twin_user =
      (Marshal.from_string blob 0 : int Queue.t * (int, file) Hashtbl.t * int)
    in
    Queue.clear free_list;
    Queue.transfer twin_free free_list;
    Hashtbl.reset files;
    Hashtbl.iter (fun k v -> Hashtbl.replace files k v) twin_files;
    user_units := twin_user
  in
  {
    Policy.name = Printf.sprintf "fixed(%s)" (Rofs_util.Units.to_string cfg.block_bytes);
    unit_bytes = cfg.unit_bytes;
    total_units;
    create_file;
    file_exists = (fun ~file -> Hashtbl.mem files file);
    ensure;
    shrink_to;
    delete;
    allocated_units = (fun ~file -> File_extents.allocated_units (the_file file).fx);
    extent_count = (fun ~file -> File_extents.count (the_file file).fx);
    extents = (fun ~file -> File_extents.to_list (the_file file).fx);
    slice = File_extents.slicer (fun file -> (the_file file).fx);
    free_units = (fun () -> Queue.length free_list * block_units);
    largest_free = (fun () -> if Queue.is_empty free_list then 0 else block_units);
    free_hist =
      (fun () ->
        let n = Queue.length free_list in
        if n = 0 then [] else [ (block_units, n) ]);
    churn_stats = (fun () -> { Policy.no_churn with cs_user_units = !user_units });
    ckpt_save;
    ckpt_load;
  }
