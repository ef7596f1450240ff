module Free_tree = Rofs_util.Free_tree
module Units = Rofs_util.Units

(* Secondary index for best fit: free extents ordered by (len, addr), so
   the first element with len >= want is the smallest adequate extent,
   lowest-addressed among equals. *)
module Size_set = Set.Make (struct
  type t = int * int

  let compare ((l1, a1) : t) ((l2, a2) : t) = if l1 <> l2 then Int.compare l1 l2 else Int.compare a1 a2
end)

type fit = First_fit | Best_fit

type config = { unit_bytes : int; fit : fit; range_means_bytes : int list }

let config ?(unit_bytes = 1024) ?(fit = First_fit) ~range_means_bytes () =
  { unit_bytes; fit; range_means_bytes }

type file = { fx : File_extents.t; extent_units : int }

type t = {
  cfg : config;
  total_units : int;
  tree : Free_tree.t;
  mutable by_size : Size_set.t;  (** maintained only under [Best_fit] *)
  files : (int, file) Hashtbl.t;
  rng : Rofs_util.Rng.t;
  mutable user_units : int;  (** units handed out for user growth *)
}

let insert_free t ~addr ~len =
  Free_tree.insert t.tree ~addr ~len;
  match t.cfg.fit with
  | Best_fit -> t.by_size <- Size_set.add (len, addr) t.by_size
  | First_fit -> ()

let remove_free t ~addr ~len =
  Free_tree.remove t.tree ~addr;
  match t.cfg.fit with
  | Best_fit -> t.by_size <- Size_set.remove (len, addr) t.by_size
  | First_fit -> ()

(* Move the free extent keyed at [addr] to [(new_addr, new_len)], keeping
   its place in address order. *)
let rekey_free t ~addr ~len ~new_addr ~new_len =
  Free_tree.rekey t.tree ~addr ~new_addr ~len:new_len;
  match t.cfg.fit with
  | Best_fit -> t.by_size <- Size_set.add (new_len, new_addr) (Size_set.remove (len, addr) t.by_size)
  | First_fit -> ()

(* Free with immediate coalescing against both neighbours.  Both
   neighbours are read before the tree changes (a change invalidates
   node indices); a merged run reuses a neighbour's node. *)
let release t ~addr ~len =
  let tree = t.tree in
  let p = Free_tree.pred tree ~addr and s = Free_tree.succ tree ~addr in
  let paddr = Free_tree.addr tree p and plen = Free_tree.len tree p in
  let saddr = Free_tree.addr tree s and slen = Free_tree.len tree s in
  match (p <> 0 && paddr + plen = addr, s <> 0 && addr + len = saddr) with
  | true, true ->
      remove_free t ~addr:saddr ~len:slen;
      rekey_free t ~addr:paddr ~len:plen ~new_addr:paddr ~new_len:(plen + len + slen)
  | true, false -> rekey_free t ~addr:paddr ~len:plen ~new_addr:paddr ~new_len:(plen + len)
  | false, true -> rekey_free t ~addr:saddr ~len:slen ~new_addr:addr ~new_len:(len + slen)
  | false, false -> insert_free t ~addr ~len

(* Claim [want] units from the front of the free extent [(addr, len)]. *)
let take t ~addr ~len want =
  if len > want then rekey_free t ~addr ~len ~new_addr:(addr + want) ~new_len:(len - want)
  else remove_free t ~addr ~len;
  addr

(* The claimed address, or -1 when no free extent is large enough. *)
let claim t want =
  match t.cfg.fit with
  | First_fit ->
      let n = Free_tree.first_fit t.tree ~want in
      if n = 0 then -1 else take t ~addr:(Free_tree.addr t.tree n) ~len:(Free_tree.len t.tree n) want
  | Best_fit -> begin
      match Size_set.find_first_opt (fun (l, _) -> l >= want) t.by_size with
      | Some (len, addr) -> take t ~addr ~len want
      | None -> -1
    end

(* A file's extent size: a draw from the range whose mean is nearest its
   allocation hint, std 10% of the mean, rounded to whole units. *)
let draw_extent_units t ~hint =
  let hint_bytes = float_of_int (hint * t.cfg.unit_bytes) in
  let nearest =
    List.fold_left
      (fun best mean ->
        match best with
        | None -> Some mean
        | Some b ->
            if Float.abs (float_of_int mean -. hint_bytes) < Float.abs (float_of_int b -. hint_bytes)
            then Some mean
            else best)
      None t.cfg.range_means_bytes
  in
  let mean = float_of_int (Option.get nearest) in
  let bytes = Rofs_util.Dist.normal_positive t.rng ~mean ~std:(0.1 *. mean) in
  max 1 (int_of_float (Float.round (bytes /. float_of_int t.cfg.unit_bytes)))

(* Checkpoint section: a format tag, then the marshalled [ckpt].  It
   holds the free extents and each file's extents in a canonical order
   (address order; file id order), never the tree's node arrays, so equal
   allocator states give equal bytes and a load can validate what it
   rebuilds.  Sections written before the tag existed are refused. *)
let ckpt_tag = "rofs-extent-alloc-v1\n"

type ckpt = {
  ck_free : (int * int) list;  (** (addr, len) in address order *)
  ck_files : (int * int * (int * int) list) list;
      (** (file id, extent units, its (addr, len) in logical order), by id *)
  ck_rng : Rofs_util.Rng.state;
  ck_user_units : int;
}

let encode_ckpt t =
  let files =
    Hashtbl.fold
      (fun id f acc ->
        let extents = List.map (fun e -> (e.Extent.addr, e.Extent.len)) (File_extents.to_list f.fx) in
        (id, f.extent_units, extents) :: acc)
      t.files []
  in
  ckpt_tag
  ^ Marshal.to_string
      {
        ck_free = Free_tree.to_list t.tree;
        ck_files = List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) files;
        ck_rng = Rofs_util.Rng.save t.rng;
        ck_user_units = t.user_units;
      }
      [ Marshal.No_sharing ]

let refuse fmt = Printf.ksprintf (fun msg -> invalid_arg ("snapshot: extent allocator: " ^ msg)) fmt

(* Decode and validate without touching [t]: the free extents must be
   sorted and maximal, and free plus file extents must tile the volume
   exactly. *)
let decode_ckpt t blob =
  if not (String.starts_with ~prefix:ckpt_tag blob) then
    refuse "section is not in the %s format (snapshot from an older build?)" (String.trim ckpt_tag);
  let ck =
    match (Marshal.from_string blob (String.length ckpt_tag) : ckpt) with
    | ck -> ck
    | exception (Failure _ | Invalid_argument _) -> refuse "section is truncated"
  in
  let rec maximal = function
    | (a, l) :: ((b, _) :: _ as rest) -> a + l < b && maximal rest
    | [ _ ] | [] -> true
  in
  if not (maximal ck.ck_free) then refuse "free extents are not sorted and coalesced";
  let every = List.fold_left (fun acc (_, _, extents) -> extents @ acc) ck.ck_free ck.ck_files in
  let tiled =
    List.fold_left
      (fun next (a, l) -> if next >= 0 && a = next && l > 0 then a + l else -1)
      0
      (List.sort (fun (a, _) (b, _) -> Int.compare a b) every)
  in
  if tiled <> t.total_units then refuse "free and file extents do not tile the volume";
  let rec increasing = function
    | (a, _, _) :: ((b, _, _) :: _ as rest) -> a < b && increasing rest
    | [ _ ] | [] -> true
  in
  if not (increasing ck.ck_files) then refuse "file ids are not sorted and unique";
  if List.exists (fun (_, units, _) -> units <= 0) ck.ck_files then
    refuse "non-positive extent size";
  ck

let load_ckpt t ck =
  Free_tree.clear t.tree;
  t.by_size <- Size_set.empty;
  List.iter (fun (addr, len) -> insert_free t ~addr ~len) ck.ck_free;
  Hashtbl.reset t.files;
  List.iter
    (fun (id, extent_units, extents) ->
      let fx = File_extents.create () in
      List.iter (fun (addr, len) -> File_extents.push fx (Extent.make ~addr ~len)) extents;
      Hashtbl.replace t.files id { fx; extent_units })
    ck.ck_files;
  (* The engine's policy builder aliases the RNG: restore it in place. *)
  Rofs_util.Rng.restore ~dst:t.rng ck.ck_rng;
  t.user_units <- ck.ck_user_units

let create cfg ~total_units ~rng =
  if cfg.unit_bytes <= 0 || total_units <= 0 then invalid_arg "Extent_alloc.create";
  if cfg.range_means_bytes = [] then invalid_arg "Extent_alloc.create: no extent ranges";
  let t =
    {
      cfg;
      total_units;
      tree = Free_tree.create ();
      by_size = Size_set.empty;
      files = Hashtbl.create 256;
      rng;
      user_units = 0;
    }
  in
  insert_free t ~addr:0 ~len:total_units;
  let the_file file =
    (* [find], not [find_opt]: no option is allocated per lookup. *)
    match Hashtbl.find t.files file with
    | f -> f
    | exception Not_found -> invalid_arg "Extent_alloc: unknown file"
  in
  let create_file ~file ~hint =
    if Hashtbl.mem t.files file then invalid_arg "Extent_alloc: duplicate file";
    Hashtbl.replace t.files file
      { fx = File_extents.create (); extent_units = draw_extent_units t ~hint }
  in
  let ensure ~file ~target =
    let f = the_file file in
    let rec grow () =
      if File_extents.allocated_units f.fx >= target then Ok ()
      else begin
        let addr = claim t f.extent_units in
        if addr < 0 then Error `Disk_full
        else begin
          File_extents.push f.fx (Extent.make ~addr ~len:f.extent_units);
          t.user_units <- t.user_units + f.extent_units;
          grow ()
        end
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
              release t ~addr:e.Extent.addr ~len:e.Extent.len;
              drop ()
          | None -> ()
        end
      | Some _ | None -> ()
    in
    drop ()
  in
  let delete ~file =
    let f = the_file file in
    File_extents.iter f.fx (fun e -> release t ~addr:e.Extent.addr ~len:e.Extent.len);
    Hashtbl.remove t.files file
  in
  let name =
    Printf.sprintf "extent(%s, %d ranges)"
      (match cfg.fit with First_fit -> "first-fit" | Best_fit -> "best-fit")
      (List.length cfg.range_means_bytes)
  in
  {
    Policy.name;
    unit_bytes = cfg.unit_bytes;
    total_units;
    create_file;
    file_exists = (fun ~file -> Hashtbl.mem t.files file);
    ensure;
    shrink_to;
    delete;
    allocated_units = (fun ~file -> File_extents.allocated_units (the_file file).fx);
    extent_count = (fun ~file -> File_extents.count (the_file file).fx);
    extents = (fun ~file -> File_extents.to_list (the_file file).fx);
    slice = File_extents.slicer (fun file -> (the_file file).fx);
    free_units = (fun () -> Free_tree.total_len t.tree);
    largest_free = (fun () -> Free_tree.max_len t.tree);
    free_hist =
      (fun () ->
        (* Sorted lengths put equal sizes next to each other: group them
           into (size, count). *)
        List.fold_right
          (fun len acc ->
            match acc with (l, c) :: rest when l = len -> (l, c + 1) :: rest | _ -> (len, 1) :: acc)
          (List.sort Int.compare (List.map snd (Free_tree.to_list t.tree)))
          []);
    churn_stats = (fun () -> { Policy.no_churn with cs_user_units = t.user_units });
    ckpt_save = (fun () -> encode_ckpt t);
    ckpt_load = (fun blob -> load_ckpt t (decode_ckpt t blob));
  }
