(* Mutable AVL tree kept in parallel int arrays, one per node field.
   Index 0 is the nil sentinel: every field of node 0 stays 0 (height,
   count, total and max_len of an empty subtree), so the augmentation
   arithmetic needs no nil case.  Removed nodes are chained through
   [left] into a free list and reused before the arrays grow; growth
   doubles every array.  Rebalancing recomputes the augmented fields
   bottom-up in [fix].  Apart from growth, nothing on the
   insert/remove/query paths allocates. *)

type t = {
  mutable left : int array;
  mutable right : int array;
  mutable addr : int array;
  mutable len : int array;
  mutable height : int array;
  mutable max_len : int array;  (** subtree maximum length *)
  mutable total : int array;  (** subtree total length *)
  mutable count : int array;  (** subtree node count *)
  mutable root : int;
  mutable next : int;  (** lowest never-used index *)
  mutable free : int;  (** head of the recycled-node list, 0 when empty *)
  mutable detached : int;
      (** node unlinked by the last [remove_min]: per-tree scratch, so
          trees on different domains never share it *)
}

let imax (a : int) b = if a >= b then a else b

let initial_capacity = 64

let create () =
  let arr () = Array.make initial_capacity 0 in
  {
    left = arr ();
    right = arr ();
    addr = arr ();
    len = arr ();
    height = arr ();
    max_len = arr ();
    total = arr ();
    count = arr ();
    root = 0;
    next = 1;
    free = 0;
    detached = 0;
  }

let clear t =
  (* Node 0's fields were never written, so only the bookkeeping resets. *)
  t.root <- 0;
  t.next <- 1;
  t.free <- 0

let is_empty t = t.root = 0
let cardinal t = t.count.(t.root)
let total_len t = t.total.(t.root)
let max_len t = t.max_len.(t.root)
let addr t n = t.addr.(n)
let len t n = t.len.(n)

(* Make room for one more node, so no array is replaced mid-update. *)
let reserve t =
  if t.free = 0 && t.next = Array.length t.left then begin
    let grow a =
      let b = Array.make (2 * Array.length a) 0 in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    t.left <- grow t.left;
    t.right <- grow t.right;
    t.addr <- grow t.addr;
    t.len <- grow t.len;
    t.height <- grow t.height;
    t.max_len <- grow t.max_len;
    t.total <- grow t.total;
    t.count <- grow t.count
  end

let new_node t ~addr ~len =
  let n =
    if t.free <> 0 then begin
      let n = t.free in
      t.free <- t.left.(n);
      n
    end
    else begin
      let n = t.next in
      t.next <- n + 1;
      n
    end
  in
  t.left.(n) <- 0;
  t.right.(n) <- 0;
  t.addr.(n) <- addr;
  t.len.(n) <- len;
  t.height.(n) <- 1;
  t.max_len.(n) <- len;
  t.total.(n) <- len;
  t.count.(n) <- 1;
  n

let recycle t n =
  t.left.(n) <- t.free;
  t.free <- n

let fix t n =
  let l = t.left.(n) and r = t.right.(n) in
  let len = t.len.(n) in
  t.height.(n) <- 1 + imax t.height.(l) t.height.(r);
  t.count.(n) <- 1 + t.count.(l) + t.count.(r);
  t.total.(n) <- len + t.total.(l) + t.total.(r);
  t.max_len.(n) <- imax len (imax t.max_len.(l) t.max_len.(r))

let rotate_left t n =
  let r = t.right.(n) in
  t.right.(n) <- t.left.(r);
  t.left.(r) <- n;
  fix t n;
  fix t r;
  r

let rotate_right t n =
  let l = t.left.(n) in
  t.left.(n) <- t.right.(l);
  t.right.(l) <- n;
  fix t n;
  fix t l;
  l

(* Recompute [n] after one of its subtrees changed height by at most
   one, rotating if it fell out of balance; returns the subtree root. *)
let rebalance t n =
  fix t n;
  let l = t.left.(n) and r = t.right.(n) in
  let bf = t.height.(l) - t.height.(r) in
  if bf > 1 then begin
    if t.height.(t.left.(l)) < t.height.(t.right.(l)) then t.left.(n) <- rotate_left t l;
    rotate_right t n
  end
  else if bf < -1 then begin
    if t.height.(t.right.(r)) < t.height.(t.left.(r)) then t.right.(n) <- rotate_right t r;
    rotate_left t n
  end
  else n

let rec find_from t n a =
  if n = 0 then 0
  else
    let k = t.addr.(n) in
    if a = k then n else if a < k then find_from t t.left.(n) a else find_from t t.right.(n) a

let find t ~addr = find_from t t.root addr
let mem t ~addr = find t ~addr <> 0

(* The duplicate check raises on the way down, before any node is
   touched, so a refused insert leaves the tree unchanged. *)
let rec insert_at t n a l =
  if n = 0 then new_node t ~addr:a ~len:l
  else begin
    let k = t.addr.(n) in
    if a = k then invalid_arg "Free_tree.insert: duplicate address"
    else if a < k then t.left.(n) <- insert_at t t.left.(n) a l
    else t.right.(n) <- insert_at t t.right.(n) a l;
    rebalance t n
  end

let insert t ~addr ~len =
  if len <= 0 then invalid_arg "Free_tree.insert: non-positive length";
  reserve t;
  t.root <- insert_at t t.root addr len

(* The shape is unchanged, so only the augmentation on the path to the
   node needs recomputing. *)
let rec rekey_at t n at a l =
  if n = 0 then invalid_arg "Free_tree.rekey: no extent at that address";
  let k = t.addr.(n) in
  if at = k then begin
    t.addr.(n) <- a;
    t.len.(n) <- l
  end
  else if at < k then rekey_at t t.left.(n) at a l
  else rekey_at t t.right.(n) at a l;
  fix t n

let rekey t ~addr ~new_addr ~len =
  if len <= 0 then invalid_arg "Free_tree.rekey: non-positive length";
  rekey_at t t.root addr new_addr len

let rec remove_min t n =
  let l = t.left.(n) in
  if l = 0 then begin
    t.detached <- n;
    t.right.(n)
  end
  else begin
    t.left.(n) <- remove_min t l;
    rebalance t n
  end

let rec remove_at t n a =
  if n = 0 then 0
  else
    let k = t.addr.(n) in
    if a < k then begin
      t.left.(n) <- remove_at t t.left.(n) a;
      rebalance t n
    end
    else if a > k then begin
      t.right.(n) <- remove_at t t.right.(n) a;
      rebalance t n
    end
    else begin
      let l = t.left.(n) and r = t.right.(n) in
      recycle t n;
      if l = 0 then r
      else if r = 0 then l
      else begin
        (* Replace the node by its successor, unlinked from [r]. *)
        let r = remove_min t r in
        let s = t.detached in
        t.left.(s) <- l;
        t.right.(s) <- r;
        rebalance t s
      end
    end

let remove t ~addr = t.root <- remove_at t t.root addr

let rec pred_from t n a best =
  if n = 0 then best
  else if t.addr.(n) < a then pred_from t t.right.(n) a n
  else pred_from t t.left.(n) a best

let pred t ~addr = pred_from t t.root addr 0

let rec succ_from t n a best =
  if n = 0 then best
  else if t.addr.(n) > a then succ_from t t.left.(n) a n
  else succ_from t t.right.(n) a best

let succ t ~addr = succ_from t t.root addr 0

(* Lowest-addressed node with len >= want: descend left while the left
   subtree can hold a fit, else take the node, else go right.  The
   max_len pruning keeps the walk to one root-to-leaf corridor, so it is
   O(log n). *)
let rec first_fit_at t n want =
  if n = 0 || t.max_len.(n) < want then 0
  else
    let l = t.left.(n) in
    if l <> 0 && t.max_len.(l) >= want then first_fit_at t l want
    else if t.len.(n) >= want then n
    else first_fit_at t t.right.(n) want

let first_fit t ~want = first_fit_at t t.root want

let rec first_fit_from_at t n min_addr want =
  if n = 0 || t.max_len.(n) < want then 0
  else if t.addr.(n) < min_addr then first_fit_from_at t t.right.(n) min_addr want
  else
    (* The node qualifies by address; its left subtree may still hold a
       lower-addressed fit. *)
    let hit = first_fit_from_at t t.left.(n) min_addr want in
    if hit <> 0 then hit
    else if t.len.(n) >= want then n
    else first_fit_from_at t t.right.(n) min_addr want

let first_fit_from t ~min_addr ~want = first_fit_from_at t t.root min_addr want

let iter t f =
  let rec go n =
    if n <> 0 then begin
      go t.left.(n);
      f ~addr:t.addr.(n) ~len:t.len.(n);
      go t.right.(n)
    end
  in
  go t.root

let to_list t =
  let rec go n acc =
    if n = 0 then acc else go t.left.(n) ((t.addr.(n), t.len.(n)) :: go t.right.(n) acc)
  in
  go t.root []

let check_invariants t =
  let exception Bad of string in
  let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt in
  (* Every used index must be reached exactly once, from the root or
     from the free list. *)
  let seen = Array.make t.next false in
  let visit n =
    if n >= t.next then bad "node %d beyond the used prefix" n;
    if seen.(n) then bad "node %d reachable twice" n;
    seen.(n) <- true
  in
  (* [lo]/[hi] are exclusive bounds on the keys allowed in [n]'s subtree. *)
  let rec go n ~lo ~hi =
    if n <> 0 then begin
      visit n;
      let a = t.addr.(n) and l = t.left.(n) and r = t.right.(n) in
      if (match lo with Some x -> a <= x | None -> false)
         || match hi with Some x -> a >= x | None -> false
      then bad "key order violated at %d" a;
      if t.len.(n) <= 0 then bad "non-positive length at %d" a;
      go l ~lo ~hi:(Some a);
      go r ~lo:(Some a) ~hi;
      let lh = t.height.(l) and rh = t.height.(r) in
      if abs (lh - rh) > 1 then bad "unbalanced at %d" a;
      if t.height.(n) <> 1 + imax lh rh then bad "bad height at %d" a;
      if t.count.(n) <> 1 + t.count.(l) + t.count.(r) then bad "bad count at %d" a;
      if t.total.(n) <> t.len.(n) + t.total.(l) + t.total.(r) then bad "bad total at %d" a;
      if t.max_len.(n) <> imax t.len.(n) (imax t.max_len.(l) t.max_len.(r)) then
        bad "bad max_len at %d" a
    end
  in
  let rec free_list n =
    if n <> 0 then begin
      visit n;
      free_list t.left.(n)
    end
  in
  match
    if t.height.(0) <> 0 || t.count.(0) <> 0 || t.total.(0) <> 0 || t.max_len.(0) <> 0 then
      bad "nil sentinel written";
    go t.root ~lo:None ~hi:None;
    free_list t.free;
    for n = 1 to t.next - 1 do
      if not seen.(n) then bad "node %d leaked" n
    done
  with
  | () -> Ok ()
  | exception Bad msg -> Error msg
