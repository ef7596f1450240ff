module Vec = Rofs_util.Vec
module Runs = Rofs_util.Runs

(* [ends] mirrors [extents]: ends.(i) is the cumulative unit count
   through extent i, i.e. the logical offset one past extent i. *)
type t = { extents : Extent.t Vec.t; ends : int Vec.t }

let create () = { extents = Vec.create (); ends = Vec.create () }

let allocated_units t =
  let n = Vec.length t.ends in
  if n = 0 then 0 else Vec.get t.ends (n - 1)

let push t extent =
  let total = allocated_units t + extent.Extent.len in
  Vec.push t.extents extent;
  Vec.push t.ends total

let pop t =
  match Vec.pop t.extents with
  | None -> None
  | Some extent ->
      ignore (Vec.pop t.ends : int option);
      Some extent

let last t = Vec.last t.extents

let count t = Vec.length t.extents

let iter t f = Vec.iter f t.extents

let to_list t = Vec.to_list t.extents

let relocate t f =
  Vec.iteri
    (fun i e ->
      match f e with
      | Some addr -> Vec.set t.extents i { e with Extent.addr }
      | None -> ())
    t.extents

(* Least index whose cumulative end exceeds [off] — the extent holding
   logical unit [off]. *)
let index_of_offset t off =
  let lo = ref 0 and hi = ref (Vec.length t.ends) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Vec.get t.ends mid > off then hi := mid else lo := mid + 1
  done;
  !lo

let slice t ~off ~len runs =
  if off < 0 || len < 0 then invalid_arg "File_extents.slice";
  Runs.clear runs;
  let total = allocated_units t in
  let off = Int.min off total in
  let stop = Int.min (off + len) total in
  if stop > off then begin
    let i = ref (index_of_offset t off) in
    (* [pos] is the logical offset of the start of extent [!i]. *)
    let pos = ref (if !i = 0 then 0 else Vec.get t.ends (!i - 1)) in
    let n = Vec.length t.extents in
    while !pos < stop && !i < n do
      let e = Vec.get t.extents !i in
      let lo = Int.max off !pos in
      let hi = Int.min stop (!pos + e.Extent.len) in
      if hi > lo then Runs.push runs ~addr:(e.Extent.addr + (lo - !pos)) ~len:(hi - lo);
      pos := !pos + e.Extent.len;
      incr i
    done
  end

let slicer fx_of =
  let runs = Runs.create () in
  fun ~file ~off ~len ->
    slice (fx_of file) ~off ~len runs;
    runs
