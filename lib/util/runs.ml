(* Pairs interleaved in one int array: [data.(2i)] is run i's address,
   [data.(2i+1)] its length. *)
type t = { mutable data : int array; mutable len : int }

let create () = { data = Array.make 32 0; len = 0 }
let clear t = t.len <- 0
let length t = t.len
let addr t i = t.data.(2 * i)
let len t i = t.data.((2 * i) + 1)

let push t ~addr ~len =
  let i = 2 * t.len in
  if i = Array.length t.data then begin
    let data = Array.make (2 * i) 0 in
    Array.blit t.data 0 data 0 i;
    t.data <- data
  end;
  t.data.(i) <- addr;
  t.data.(i + 1) <- len;
  t.len <- t.len + 1

let total_len t =
  let sum = ref 0 in
  for i = 0 to t.len - 1 do
    sum := !sum + t.data.((2 * i) + 1)
  done;
  !sum

let set_list t l =
  clear t;
  List.iter (fun (addr, len) -> push t ~addr ~len) l

let to_list t = List.init t.len (fun i -> (addr t i, len t i))
