(* Unit and property tests for the utility substrate: PRNG,
   distributions, event heap, statistics, bitset, free tree, vector,
   units and tables. *)

module Rng = Core.Rng
module Dist = Core.Dist
module Heap = Core.Heap
module Stats = Core.Stats
module Bitset = Core.Bitset
module Free_tree = Core.Free_tree
module Vec = Core.Vec
module Units = Core.Units
module Table = Core.Table

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  check_bool "different seeds diverge" true (!same < 4)

let test_rng_copy_independent () =
  let a = Rng.create ~seed:3 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b);
  (* advancing one does not affect the other *)
  ignore (Rng.bits64 a);
  ignore (Rng.bits64 a);
  let x = Rng.bits64 a and y = Rng.bits64 b in
  check_bool "streams now desynchronized" true (x <> y)

let test_rng_split_decorrelates () =
  let parent = Rng.create ~seed:9 in
  let child = Rng.split parent in
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 parent = Rng.bits64 child then incr matches
  done;
  check_bool "split streams differ" true (!matches < 4)

let test_rng_float_range () =
  let rng = Rng.create ~seed:11 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    check_bool "in [0,1)" true (x >= 0. && x < 1.)
  done

let test_rng_int_range () =
  let rng = Rng.create ~seed:13 in
  for n = 1 to 50 do
    for _ = 1 to 100 do
      let v = Rng.int rng n in
      check_bool "in range" true (v >= 0 && v < n)
    done
  done

let test_rng_int_covers_all () =
  let rng = Rng.create ~seed:17 in
  let seen = Array.make 10 false in
  for _ = 1 to 1000 do
    seen.(Rng.int rng 10) <- true
  done;
  Array.iteri (fun i hit -> check_bool (Printf.sprintf "value %d seen" i) true hit) seen

let test_rng_int_in () =
  let rng = Rng.create ~seed:19 in
  for _ = 1 to 1000 do
    let v = Rng.int_in rng ~lo:(-5) ~hi:5 in
    check_bool "in [-5,5]" true (v >= -5 && v <= 5)
  done

let test_rng_uniformity () =
  (* Chi-squared-ish sanity: 16 buckets over 32k draws should each hold
     within 20% of the expected count. *)
  let rng = Rng.create ~seed:23 in
  let buckets = Array.make 16 0 in
  let draws = 32_768 in
  for _ = 1 to draws do
    let b = Rng.int rng 16 in
    buckets.(b) <- buckets.(b) + 1
  done;
  let expected = draws / 16 in
  Array.iter
    (fun c ->
      check_bool "bucket within 20% of expectation" true
        (abs (c - expected) < expected / 5))
    buckets

(* Reference model: the record-based xoshiro256** the generator was
   before its state moved into a [Bytes.t], kept verbatim.  Every draw
   of [Rng] must equal this model's bit for bit ([bits53] being the top
   53 bits of [bits64]), and [Rng.save] must marshal exactly as this
   record does. *)
module Old_rng = struct
  type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

  let splitmix64 state =
    let open Int64 in
    state := add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  let create ~seed =
    let state = ref (Int64.of_int seed) in
    let s0 = splitmix64 state in
    let s1 = splitmix64 state in
    let s2 = splitmix64 state in
    let s3 = splitmix64 state in
    { s0; s1; s2; s3 }

  let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

  let bits64 t =
    let open Int64 in
    let result = mul (rotl (mul t.s1 5L) 7) 9L in
    let tmp = shift_left t.s1 17 in
    t.s2 <- logxor t.s2 t.s0;
    t.s3 <- logxor t.s3 t.s1;
    t.s1 <- logxor t.s1 t.s2;
    t.s0 <- logxor t.s0 t.s3;
    t.s2 <- logxor t.s2 tmp;
    t.s3 <- rotl t.s3 45;
    result

  let split t =
    let state = ref (Int64.logxor (bits64 t) (rotl (bits64 t) 23)) in
    let s0 = splitmix64 state in
    let s1 = splitmix64 state in
    let s2 = splitmix64 state in
    let s3 = splitmix64 state in
    { s0; s1; s2; s3 }

  let float t =
    let bits = Int64.shift_right_logical (bits64 t) 11 in
    Int64.to_float bits *. 0x1.0p-53

  let int t n =
    assert (n > 0);
    if n = 1 then 0
    else begin
      let mask =
        let rec widen m = if m >= n - 1 then m else widen ((m lsl 1) lor 1) in
        widen 1
      in
      let rec draw () =
        let v = Int64.to_int (Int64.logand (bits64 t) (Int64.of_int mask)) in
        if v < n then v else draw ()
      in
      draw ()
    end

  let int_in t ~lo ~hi =
    assert (lo <= hi);
    lo + int t (hi - lo + 1)

  let bool t = Int64.logand (bits64 t) 1L = 1L
end

(* One draw of each kind, applied to both generators; [Split] swaps
   both to their children, so later draws check the child streams. *)
type rng_op = Bits | Bits53 | Float | Int of int | Int_in of int * int | Bool | Split

let rng_op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, return Bits);
        (2, return Bits53);
        (3, return Float);
        ( 3,
          map (fun n -> Int n)
            (oneof [ int_range 1 40; int_range 1 1_000_000; int_range 1 max_int ]) );
        (2, map2 (fun lo span -> Int_in (lo, lo + span)) (int_range (-1000) 1000) (int_bound 5000));
        (2, return Bool);
        (1, return Split);
      ])

let prop_rng_matches_reference =
  let show = function
    | Bits -> "bits"
    | Bits53 -> "bits53"
    | Float -> "float"
    | Int n -> Printf.sprintf "int %d" n
    | Int_in (lo, hi) -> Printf.sprintf "int_in %d %d" lo hi
    | Bool -> "bool"
    | Split -> "split"
  in
  QCheck.Test.make ~name:"every draw equals the record-based reference" ~count:300
    QCheck.(
      pair int
        (make
           ~print:(fun l -> String.concat "; " (List.map show l))
           Gen.(list_size (int_range 1 200) rng_op_gen)))
    (fun (seed, ops) ->
      let r = ref (Rng.create ~seed) and o = ref (Old_rng.create ~seed) in
      List.for_all
        (fun op ->
          match op with
          | Bits -> Int64.equal (Rng.bits64 !r) (Old_rng.bits64 !o)
          | Bits53 ->
              Rng.bits53 !r = Int64.to_int (Int64.shift_right_logical (Old_rng.bits64 !o) 11)
          | Float ->
              Int64.equal
                (Int64.bits_of_float (Rng.float !r))
                (Int64.bits_of_float (Old_rng.float !o))
          | Int n -> Rng.int !r n = Old_rng.int !o n
          | Int_in (lo, hi) -> Rng.int_in !r ~lo ~hi = Old_rng.int_in !o ~lo ~hi
          | Bool -> Rng.bool !r = Old_rng.bool !o
          | Split ->
              r := Rng.split !r;
              o := Old_rng.split !o;
              true)
        ops
      (* the saved state marshals exactly as the reference record *)
      && String.equal (Marshal.to_string (Rng.save !r) []) (Marshal.to_string !o []))

let test_rng_save_restore_continues () =
  let a = Rng.create ~seed:43 in
  for _ = 1 to 17 do
    ignore (Rng.bits64 a)
  done;
  let saved = Rng.save a in
  let b = Rng.create ~seed:44 in
  Rng.restore ~dst:b saved;
  for _ = 1 to 100 do
    Alcotest.(check int64) "restored stream continues" (Rng.bits64 a) (Rng.bits64 b)
  done;
  (* a snapshot round-trips through Marshal, as checkpoints store it *)
  let c = Rng.create ~seed:45 in
  Rng.restore ~dst:c (Marshal.from_string (Marshal.to_string (Rng.save a) []) 0 : Rng.state);
  for _ = 1 to 100 do
    Alcotest.(check int64) "unmarshalled state continues" (Rng.bits64 a) (Rng.bits64 c)
  done

let test_rng_int_allocation_free () =
  let r = Rng.create ~seed:47 in
  let calls = 100_000 in
  let before = Gc.minor_words () in
  for i = 1 to calls do
    ignore (Rng.int r (1 + (i land 1023)) : int)
  done;
  let words = Gc.minor_words () -. before in
  (* a few words of slack for the measurement's own boxed float *)
  if words > 8. then Alcotest.failf "Rng.int allocated %.0f minor words over %d calls" words calls

(* ------------------------------------------------------------------ *)
(* Dist *)

let test_dist_uniform_bounds () =
  let rng = Rng.create ~seed:29 in
  for _ = 1 to 10_000 do
    let x = Dist.uniform rng ~lo:3. ~hi:7. in
    check_bool "in [3,7)" true (x >= 3. && x < 7.)
  done

let test_dist_uniform_mean_dev () =
  let rng = Rng.create ~seed:31 in
  let s = Stats.create () in
  for _ = 1 to 20_000 do
    let x = Dist.uniform_mean_dev rng ~mean:100. ~dev:50. in
    check_bool "within mean +- dev" true (x >= 50. && x <= 150.);
    Stats.add s x
  done;
  check_bool "mean near 100" true (Float.abs (Stats.mean s -. 100.) < 2.)

let test_dist_uniform_mean_dev_clamps () =
  let rng = Rng.create ~seed:37 in
  for _ = 1 to 1000 do
    let x = Dist.uniform_mean_dev rng ~mean:1. ~dev:1. in
    check_bool "never negative" true (x >= 0.)
  done

let test_dist_exponential_positive_and_mean () =
  let rng = Rng.create ~seed:41 in
  let s = Stats.create () in
  for _ = 1 to 50_000 do
    let x = Dist.exponential rng ~mean:20. in
    check_bool "positive" true (x >= 0.);
    Stats.add s x
  done;
  check_bool "mean near 20" true (Float.abs (Stats.mean s -. 20.) < 1.)

let test_dist_normal_moments () =
  let rng = Rng.create ~seed:43 in
  let s = Stats.create () in
  for _ = 1 to 50_000 do
    Stats.add s (Dist.normal rng ~mean:10. ~std:2.)
  done;
  check_bool "mean near 10" true (Float.abs (Stats.mean s -. 10.) < 0.1);
  check_bool "std near 2" true (Float.abs (Stats.stddev s -. 2.) < 0.1)

let test_dist_normal_positive () =
  let rng = Rng.create ~seed:47 in
  for _ = 1 to 10_000 do
    check_bool "strictly positive" true (Dist.normal_positive rng ~mean:5. ~std:5. > 0.)
  done

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_empty () =
  let h : int Heap.t = Heap.create () in
  check_bool "is_empty" true (Heap.is_empty h);
  check_int "length" 0 (Heap.length h);
  check_bool "pop none" true (Heap.pop h = None);
  check_bool "peek none" true (Heap.peek h = None)

let test_heap_ordering () =
  let h = Heap.create () in
  List.iter (fun p -> Heap.push h ~prio:p p) [ 5.; 1.; 4.; 2.; 3. ];
  let order = List.map fst (Heap.to_sorted_list h) in
  Alcotest.(check (list (float 0.))) "sorted" [ 1.; 2.; 3.; 4.; 5. ] order;
  (* to_sorted_list is non-destructive *)
  check_int "still 5 elements" 5 (Heap.length h)

let test_heap_pop_order () =
  let h = Heap.create () in
  let rng = Rng.create ~seed:53 in
  for i = 0 to 999 do
    Heap.push h ~prio:(Rng.float rng) i
  done;
  let rec drain last n =
    match Heap.pop h with
    | None -> n
    | Some (p, _) ->
        check_bool "non-decreasing" true (p >= last);
        drain p (n + 1)
  in
  check_int "drained all" 1000 (drain neg_infinity 0)

let test_heap_interleaved () =
  let h = Heap.create () in
  Heap.push h ~prio:2. "b";
  Heap.push h ~prio:1. "a";
  check_bool "peek a" true (Heap.peek h = Some (1., "a"));
  check_bool "pop a" true (Heap.pop h = Some (1., "a"));
  Heap.push h ~prio:0.5 "c";
  check_bool "pop c" true (Heap.pop h = Some (0.5, "c"));
  check_bool "pop b" true (Heap.pop h = Some (2., "b"));
  check_bool "empty" true (Heap.is_empty h)

let test_heap_clear () =
  let h = Heap.create () in
  for i = 1 to 10 do
    Heap.push h ~prio:(float_of_int i) i
  done;
  Heap.clear h;
  check_bool "cleared" true (Heap.is_empty h);
  Heap.push h ~prio:1. 1;
  check_int "usable after clear" 1 (Heap.length h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains any float list in order" ~count:200
    QCheck.(list (float_bound_inclusive 1000.))
    (fun floats ->
      let h = Heap.create () in
      List.iter (fun f -> Heap.push h ~prio:f f) floats;
      let drained = List.map fst (Heap.to_sorted_list h) in
      drained = List.sort compare floats)

let test_heap_min_prio_take_min () =
  let h = Heap.create () in
  check_bool "min_prio on empty raises" true
    (match Heap.min_prio h with _ -> false | exception Invalid_argument _ -> true);
  check_bool "take_min on empty raises" true
    (match Heap.take_min h with _ -> false | exception Invalid_argument _ -> true);
  List.iter (fun p -> Heap.push h ~prio:p (int_of_float p)) [ 5.; 1.; 4.; 2.; 3. ];
  (* min_prio + take_min drains exactly like pop *)
  let rec drain acc =
    if Heap.is_empty h then List.rev acc
    else begin
      let p = Heap.min_prio h in
      let v = Heap.take_min h in
      drain ((p, v) :: acc)
    end
  in
  check_bool "drain order" true
    (drain [] = [ (1., 1); (2., 2); (3., 3); (4., 4); (5., 5) ])

let test_heap_push_batch_basic () =
  let h = Heap.create () in
  (* a batch that dominates the heap takes the bulk-append path *)
  Heap.push h ~prio:1. 1;
  Heap.push_batch h ~prios:[| 5.; 3.; 4. |] ~values:[| 5; 3; 4 |] 3;
  (* one that does not (2. undercuts the existing 3.) takes the
     push-loop path *)
  Heap.push_batch h ~prios:[| 2.; 6. |] ~values:[| 2; 6 |] 2;
  (* len < array length inserts a prefix only *)
  Heap.push_batch h ~prios:[| 0.5; 99. |] ~values:[| 0; 99 |] 1;
  check_int "length" 7 (Heap.length h);
  check_bool "drains sorted" true
    (List.map snd (Heap.to_sorted_list h) = [ 0; 1; 2; 3; 4; 5; 6 ]);
  check_bool "empty batch is a no-op" true
    (Heap.push_batch h ~prios:[||] ~values:[||] 0;
     Heap.length h = 7);
  check_bool "oversized len raises" true
    (match Heap.push_batch h ~prios:[| 1. |] ~values:[| 1; 2 |] 2 with
    | () -> false
    | exception Invalid_argument _ -> true)

(* Batched insertion interleaved with drains is observationally equal to
   one-at-a-time pushes: same drained (prio, value) sequences.  Values
   equal priorities so equal-priority ties (unspecified order) cannot
   produce a false mismatch. *)
let prop_heap_push_batch_equiv =
  QCheck.Test.make ~name:"push_batch equals one-at-a-time pushes" ~count:200
    QCheck.(list (pair (list_of_size Gen.(int_bound 12) (float_bound_inclusive 1000.)) (int_bound 5)))
    (fun rounds ->
      let batched = Heap.create () and reference = Heap.create () in
      let drained_b = ref [] and drained_r = ref [] in
      List.iter
        (fun (batch, drains) ->
          let prios = Array.of_list batch in
          Heap.push_batch batched ~prios ~values:prios (Array.length prios);
          Array.iter (fun p -> Heap.push reference ~prio:p p) prios;
          for _ = 1 to drains do
            if not (Heap.is_empty batched) then begin
              let p = Heap.min_prio batched in
              let v = Heap.take_min batched in
              drained_b := (p, v) :: !drained_b;
              drained_r := Option.get (Heap.pop reference) :: !drained_r
            end
          done)
        rounds;
      !drained_b = !drained_r
      && List.map fst (Heap.to_sorted_list batched)
         = List.map fst (Heap.to_sorted_list reference))

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_basic () =
  let s = Stats.create () in
  check_float "empty mean" 0. (Stats.mean s);
  List.iter (Stats.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  check_int "count" 8 (Stats.count s);
  check_float "mean" 5. (Stats.mean s);
  check_bool "variance (unbiased)" true (Float.abs (Stats.variance s -. (32. /. 7.)) < 1e-9);
  Alcotest.(check (option (float 0.))) "min" (Some 2.) (Stats.min_value s);
  Alcotest.(check (option (float 0.))) "max" (Some 9.) (Stats.max_value s);
  check_float "total" 40. (Stats.total s);
  let empty = Stats.create () in
  Alcotest.(check (option (float 0.))) "empty min" None (Stats.min_value empty);
  Alcotest.(check (option (float 0.))) "empty max" None (Stats.max_value empty)

let test_stats_single () =
  let s = Stats.create () in
  Stats.add s 3.5;
  check_float "mean" 3.5 (Stats.mean s);
  check_float "variance" 0. (Stats.variance s);
  Alcotest.(check (option (float 0.))) "min=max" (Some 3.5) (Stats.min_value s)

let test_series_stability () =
  let s = Stats.Series.create ~window:3 ~tolerance:0.1 in
  check_bool "empty not stable" false (Stats.Series.is_stable s);
  Stats.Series.add s 10.0;
  Stats.Series.add s 10.05;
  check_bool "two samples not stable" false (Stats.Series.is_stable s);
  Stats.Series.add s 10.08;
  check_bool "three close samples stable" true (Stats.Series.is_stable s);
  Stats.Series.add s 11.0;
  check_bool "a jump breaks stability" false (Stats.Series.is_stable s);
  Stats.Series.add s 11.05;
  Stats.Series.add s 11.02;
  check_bool "stabilizes again" true (Stats.Series.is_stable s)

let test_series_exact_tolerance () =
  let s = Stats.Series.create ~window:2 ~tolerance:0.5 in
  Stats.Series.add s 1.0;
  Stats.Series.add s 1.5;
  check_bool "span equal to tolerance counts as stable" true (Stats.Series.is_stable s)

let test_series_accessors () =
  let s = Stats.Series.create ~window:3 ~tolerance:1. in
  check_bool "last of empty" true (Stats.Series.last s = None);
  Stats.Series.add s 1.;
  Stats.Series.add s 2.;
  check_bool "last" true (Stats.Series.last s = Some 2.);
  Alcotest.(check (list (float 0.))) "samples oldest first" [ 1.; 2. ] (Stats.Series.samples s)

let prop_stats_mean_matches_naive =
  QCheck.Test.make ~name:"running mean equals naive mean" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_bound_inclusive 1000.))
    (fun samples ->
      let s = Stats.create () in
      List.iter (Stats.add s) samples;
      let naive = List.fold_left ( +. ) 0. samples /. float_of_int (List.length samples) in
      Float.abs (Stats.mean s -. naive) < 1e-6)

(* ------------------------------------------------------------------ *)
(* Bitset *)

let test_bitset_basic () =
  let b = Bitset.create 100 in
  check_int "length" 100 (Bitset.length b);
  check_int "cardinal 0" 0 (Bitset.cardinal b);
  Bitset.set b 0;
  Bitset.set b 63;
  Bitset.set b 99;
  check_bool "mem 0" true (Bitset.mem b 0);
  check_bool "mem 63" true (Bitset.mem b 63);
  check_bool "mem 99" true (Bitset.mem b 99);
  check_bool "not mem 50" false (Bitset.mem b 50);
  check_int "cardinal 3" 3 (Bitset.cardinal b);
  Bitset.clear b 63;
  check_bool "cleared" false (Bitset.mem b 63);
  check_int "cardinal 2" 2 (Bitset.cardinal b)

let test_bitset_idempotent () =
  let b = Bitset.create 8 in
  Bitset.set b 3;
  Bitset.set b 3;
  check_int "double set counts once" 1 (Bitset.cardinal b);
  Bitset.clear b 3;
  Bitset.clear b 3;
  check_int "double clear counts once" 0 (Bitset.cardinal b)

let test_bitset_first_set () =
  let b = Bitset.create 200 in
  check_bool "none" true (Bitset.first_set_from b 0 = None);
  Bitset.set b 17;
  Bitset.set b 130;
  check_bool "finds 17" true (Bitset.first_set_from b 0 = Some 17);
  check_bool "finds 17 from 17" true (Bitset.first_set_from b 17 = Some 17);
  check_bool "finds 130 from 18" true (Bitset.first_set_from b 18 = Some 130);
  check_bool "none from 131" true (Bitset.first_set_from b 131 = None);
  check_bool "window hit" true (Bitset.first_set_in b ~lo:0 ~hi:18 = Some 17);
  check_bool "window miss" true (Bitset.first_set_in b ~lo:18 ~hi:130 = None)

let test_bitset_iter () =
  let b = Bitset.create 64 in
  List.iter (Bitset.set b) [ 1; 7; 8; 31; 63 ];
  let collected = ref [] in
  Bitset.iter_set b (fun i -> collected := i :: !collected);
  Alcotest.(check (list int)) "iterates in order" [ 1; 7; 8; 31; 63 ] (List.rev !collected)

let test_bitset_bounds () =
  let b = Bitset.create 10 in
  Alcotest.check_raises "negative index" (Invalid_argument "Bitset: index out of bounds")
    (fun () -> Bitset.set b (-1));
  Alcotest.check_raises "index = length" (Invalid_argument "Bitset: index out of bounds")
    (fun () -> ignore (Bitset.mem b 10))

let prop_bitset_matches_model =
  QCheck.Test.make ~name:"bitset behaves like a bool array" ~count:100
    QCheck.(list (pair (int_bound 255) bool))
    (fun operations ->
      let b = Bitset.create 256 in
      let model = Array.make 256 false in
      List.iter
        (fun (i, set) ->
          if set then Bitset.set b i else Bitset.clear b i;
          model.(i) <- set)
        operations;
      let ok = ref true in
      Array.iteri (fun i expected -> if Bitset.mem b i <> expected then ok := false) model;
      let expected_cardinal = Array.fold_left (fun a v -> if v then a + 1 else a) 0 model in
      !ok && Bitset.cardinal b = expected_cardinal)

(* ------------------------------------------------------------------ *)
(* Free_tree *)

let ft_of_list pairs =
  let t = Free_tree.create () in
  List.iter (fun (addr, len) -> Free_tree.insert t ~addr ~len) pairs;
  t

(* A query's node as the [(addr, len)] option the checks compare. *)
let ext t n = if n = 0 then None else Some (Free_tree.addr t n, Free_tree.len t n)

let test_free_tree_basic () =
  let t = ft_of_list [ (10, 5); (0, 3); (20, 10) ] in
  check_int "cardinal" 3 (Free_tree.cardinal t);
  check_int "total" 18 (Free_tree.total_len t);
  check_int "max_len" 10 (Free_tree.max_len t);
  check_bool "mem 10" true (Free_tree.mem t ~addr:10);
  check_bool "find 20" true (ext t (Free_tree.find t ~addr:20) = Some (20, 10));
  check_bool "find 5 absent" true (Free_tree.find t ~addr:5 = 0);
  Alcotest.(check (list (pair int int))) "address order" [ (0, 3); (10, 5); (20, 10) ]
    (Free_tree.to_list t)

let test_free_tree_remove () =
  let t = ft_of_list [ (0, 1); (5, 2); (9, 3) ] in
  Free_tree.remove t ~addr:5;
  check_int "cardinal" 2 (Free_tree.cardinal t);
  check_bool "gone" false (Free_tree.mem t ~addr:5);
  check_int "total adjusted" 4 (Free_tree.total_len t);
  Free_tree.remove t ~addr:12345;
  check_int "removing absent is a no-op" 2 (Free_tree.cardinal t)

let test_free_tree_neighbors () =
  let t = ft_of_list [ (0, 4); (10, 4); (20, 4) ] in
  check_bool "pred of 10" true (ext t (Free_tree.pred t ~addr:10) = Some (0, 4));
  check_bool "succ of 10" true (ext t (Free_tree.succ t ~addr:10) = Some (20, 4));
  check_bool "pred of 0" true (ext t (Free_tree.pred t ~addr:0) = None);
  check_bool "succ of 20" true (ext t (Free_tree.succ t ~addr:20) = None);
  check_bool "pred of 15" true (ext t (Free_tree.pred t ~addr:15) = Some (10, 4))

let test_free_tree_first_fit () =
  let t = ft_of_list [ (0, 2); (10, 8); (30, 4); (50, 16) ] in
  check_bool "wants 1 -> lowest" true (ext t (Free_tree.first_fit t ~want:1) = Some (0, 2));
  check_bool "wants 3 -> 10" true (ext t (Free_tree.first_fit t ~want:3) = Some (10, 8));
  check_bool "wants 9 -> 50" true (ext t (Free_tree.first_fit t ~want:9) = Some (50, 16));
  check_bool "wants 17 -> none" true (ext t (Free_tree.first_fit t ~want:17) = None)

let test_free_tree_first_fit_from () =
  let t = ft_of_list [ (0, 8); (10, 8); (30, 8) ] in
  let fff ~min_addr ~want = ext t (Free_tree.first_fit_from t ~min_addr ~want) in
  check_bool "from 5 skips 0" true (fff ~min_addr:5 ~want:4 = Some (10, 8));
  check_bool "from 0 finds 0" true (fff ~min_addr:0 ~want:4 = Some (0, 8));
  check_bool "from 31 none" true (fff ~min_addr:31 ~want:4 = None)

let test_free_tree_duplicate_raises () =
  let t = ft_of_list [ (5, 2) ] in
  Alcotest.check_raises "duplicate address" (Invalid_argument "Free_tree.insert: duplicate address")
    (fun () -> Free_tree.insert t ~addr:5 ~len:9);
  Alcotest.(check (list (pair int int))) "refused insert leaves the tree" [ (5, 2) ]
    (Free_tree.to_list t)

let test_free_tree_rekey () =
  let t = ft_of_list [ (0, 4); (10, 4); (20, 4) ] in
  Free_tree.rekey t ~addr:10 ~new_addr:12 ~len:7;
  Alcotest.(check (list (pair int int))) "moved in place" [ (0, 4); (12, 7); (20, 4) ]
    (Free_tree.to_list t);
  check_int "total follows" 15 (Free_tree.total_len t);
  check_int "max follows" 7 (Free_tree.max_len t);
  Alcotest.check_raises "absent key" (Invalid_argument "Free_tree.rekey: no extent at that address")
    (fun () -> Free_tree.rekey t ~addr:10 ~new_addr:11 ~len:1);
  check_bool "invariants hold" true (Free_tree.check_invariants t = Ok ())

let test_free_tree_invariants_small () =
  let t = ft_of_list (List.init 100 (fun i -> (i * 10, (i mod 7) + 1))) in
  check_bool "invariants hold" true (Free_tree.check_invariants t = Ok ())

(* Drain to empty and refill: removed nodes are reused, so refilling to
   the same size must not grow the node arrays' used prefix — visible as
   invariants holding (no leaked or double-used node) through many
   rounds far past the initial capacity. *)
let test_free_tree_recycle_and_grow () =
  let t = Free_tree.create () in
  for round = 1 to 3 do
    let n = 1000 * round in
    for i = 0 to n - 1 do
      Free_tree.insert t ~addr:(i * 7 mod n * 3) ~len:(1 + (i mod 5))
    done;
    check_int "filled" n (Free_tree.cardinal t);
    check_bool "invariants after fill" true (Free_tree.check_invariants t = Ok ());
    for i = 0 to n - 1 do
      Free_tree.remove t ~addr:(i * 3)
    done;
    check_bool "drained" true (Free_tree.is_empty t);
    check_int "drained total" 0 (Free_tree.total_len t);
    check_int "drained max" 0 (Free_tree.max_len t);
    check_bool "invariants after drain" true (Free_tree.check_invariants t = Ok ())
  done;
  Free_tree.insert t ~addr:1 ~len:2;
  Free_tree.clear t;
  check_bool "clear empties" true (Free_tree.is_empty t && Free_tree.check_invariants t = Ok ());
  Free_tree.insert t ~addr:4 ~len:6;
  Alcotest.(check (list (pair int int))) "usable after clear" [ (4, 6) ] (Free_tree.to_list t)

(* Reference answers computed from the sorted association list. *)
let model_pred m a = List.fold_left (fun best (k, l) -> if k < a then Some (k, l) else best) None m
let model_succ m a = List.find_opt (fun (k, _) -> k > a) m
let model_first_fit_from m ~min_addr ~want = List.find_opt (fun (k, l) -> k >= min_addr && l >= want) m

let free_tree_agrees t m probes =
  Free_tree.to_list t = m
  && Free_tree.check_invariants t = Ok ()
  && Free_tree.cardinal t = List.length m
  && Free_tree.total_len t = List.fold_left (fun a (_, l) -> a + l) 0 m
  && Free_tree.max_len t = List.fold_left (fun a (_, l) -> max a l) 0 m
  && List.for_all
       (fun (a, want) ->
         ext t (Free_tree.pred t ~addr:a) = model_pred m a
         && ext t (Free_tree.succ t ~addr:a) = model_succ m a
         && ext t (Free_tree.first_fit t ~want) = model_first_fit_from m ~min_addr:min_int ~want
         && ext t (Free_tree.first_fit_from t ~min_addr:a ~want)
            = model_first_fit_from m ~min_addr:a ~want)
       probes

let prop_free_tree_model =
  (* Random insert/remove/rekey sequences behave like a sorted
     association list: after every step the contents, the maintained
     totals, the AVL invariants and every query on random probes agree
     with the model. *)
  let gen =
    QCheck.(
      pair (list (pair (int_bound 500) (int_bound 2))) (small_list (pair (int_bound 510) (int_range 1 10))))
  in
  QCheck.Test.make ~name:"free tree matches a model under churn" ~count:200 gen (fun (ops, probes) ->
      let tree = Free_tree.create () in
      let model = ref [] in
      let set m = model := List.sort compare m in
      List.for_all
        (fun (addr, op) ->
          let present = List.mem_assoc addr !model in
          (match op with
          | 0 when not present ->
              let len = (addr mod 9) + 1 in
              set ((addr, len) :: !model);
              Free_tree.insert tree ~addr ~len
          | 2 when present && not (List.mem_assoc (addr + 1) !model) ->
              (* addr + 1 still lies strictly between the neighbours *)
              let len = (List.assoc addr !model mod 9) + 1 in
              set ((addr + 1, len) :: List.remove_assoc addr !model);
              Free_tree.rekey tree ~addr ~new_addr:(addr + 1) ~len
          | _ ->
              set (List.remove_assoc addr !model);
              Free_tree.remove tree ~addr);
          free_tree_agrees tree !model probes)
        ops)

let prop_free_tree_first_fit_is_lowest =
  QCheck.Test.make ~name:"first_fit returns the lowest adequate address" ~count:200
    QCheck.(pair (small_list (pair (int_bound 1000) (int_range 1 20))) (int_range 1 20))
    (fun (pairs, want) ->
      (* Dedup addresses to satisfy the no-duplicate precondition. *)
      let seen = Hashtbl.create 16 in
      let pairs =
        List.filter
          (fun (a, _) ->
            if Hashtbl.mem seen a then false
            else begin
              Hashtbl.add seen a ();
              true
            end)
          pairs
      in
      let tree = ft_of_list pairs in
      let expected =
        List.sort compare pairs |> List.find_opt (fun (_, l) -> l >= want)
      in
      ext tree (Free_tree.first_fit tree ~want) = expected)

(* ------------------------------------------------------------------ *)
(* Vec *)

let test_vec_push_pop () =
  let v = Vec.create () in
  check_bool "empty" true (Vec.is_empty v);
  Vec.push v 1;
  Vec.push v 2;
  Vec.push v 3;
  check_int "length" 3 (Vec.length v);
  check_bool "last" true (Vec.last v = Some 3);
  check_bool "pop" true (Vec.pop v = Some 3);
  check_int "length after pop" 2 (Vec.length v);
  check_bool "pop" true (Vec.pop v = Some 2);
  check_bool "pop" true (Vec.pop v = Some 1);
  check_bool "pop empty" true (Vec.pop v = None)

let test_vec_get_set () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v i
  done;
  check_int "get 50" 50 (Vec.get v 50);
  Vec.set v 50 999;
  check_int "set worked" 999 (Vec.get v 50);
  Alcotest.check_raises "out of bounds" (Invalid_argument "Vec: index out of bounds") (fun () ->
      ignore (Vec.get v 100))

let test_vec_iter_fold () =
  let v = Vec.create () in
  List.iter (Vec.push v) [ 1; 2; 3; 4 ];
  check_int "fold sum" 10 (Vec.fold_left ( + ) 0 v);
  Alcotest.(check (list int)) "to_list" [ 1; 2; 3; 4 ] (Vec.to_list v);
  let indices = ref [] in
  Vec.iteri (fun i x -> indices := (i, x) :: !indices) v;
  Alcotest.(check (list (pair int int))) "iteri" [ (0, 1); (1, 2); (2, 3); (3, 4) ]
    (List.rev !indices)

let test_vec_clear () =
  let v = Vec.create () in
  Vec.push v 1;
  Vec.clear v;
  check_bool "cleared" true (Vec.is_empty v)

(* ------------------------------------------------------------------ *)
(* Units *)

let test_units_constants () =
  check_int "kib" 1024 Units.kib;
  check_int "mib" (1024 * 1024) Units.mib;
  check_int "of_kib" (8 * 1024) (Units.of_kib 8);
  check_int "of_mib" (16 * 1024 * 1024) (Units.of_mib 16);
  check_int "of_gib" (Units.gib * 2) (Units.of_gib 2.)

let test_units_formatting () =
  Alcotest.(check string) "bytes" "512" (Units.to_string 512);
  Alcotest.(check string) "8K" "8K" (Units.to_string (8 * 1024));
  Alcotest.(check string) "1M" "1M" (Units.to_string (1024 * 1024));
  Alcotest.(check string) "16M" "16M" (Units.to_string (16 * 1024 * 1024));
  Alcotest.(check string) "2.5G" "2.5G" (Units.to_string (Units.of_gib 2.5));
  Alcotest.(check string) "1.5K" "1.5K" (Units.to_string 1536);
  Alcotest.(check string) "negative" "-8K" (Units.to_string (-8192))

(* ------------------------------------------------------------------ *)
(* Table *)

let test_table_render () =
  let t = Table.create ~header:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let rendered = Table.render t in
  check_bool "has header" true
    (String.length rendered > 0
    && String.sub rendered 0 4 = "name");
  (* all lines align: every row has the same width *)
  let lines = String.split_on_char '\n' rendered |> List.filter (fun l -> l <> "") in
  check_int "line count (header + rule + 2 rows)" 4 (List.length lines)

let test_table_pads_short_rows () =
  let t = Table.create ~header:[ "a"; "b"; "c" ] in
  Table.add_row t [ "x" ];
  check_bool "renders" true (String.length (Table.render t) > 0)

let test_table_csv () =
  let t = Table.create ~header:[ "a"; "b" ] in
  Table.add_row t [ "plain"; "with,comma" ];
  Table.add_row t [ "quote\"here"; "multi\nline" ];
  let csv = Table.to_csv t in
  let lines = String.split_on_char '\n' csv in
  Alcotest.(check string) "header" "a,b" (List.hd lines);
  check_bool "comma quoted" true
    (String.length csv > 0 && List.exists (fun l -> l = "plain,\"with,comma\"") lines)

let test_table_rejects_long_rows () =
  let t = Table.create ~header:[ "a" ] in
  Alcotest.check_raises "too many cells"
    (Invalid_argument "Table.add_row: more cells than columns") (fun () ->
      Table.add_row t [ "1"; "2" ])

(* ------------------------------------------------------------------ *)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "rofs_util"
    [
      ( "rng",
        [
          quick "deterministic" test_rng_deterministic;
          quick "seeds differ" test_rng_seeds_differ;
          quick "copy independent" test_rng_copy_independent;
          quick "split decorrelates" test_rng_split_decorrelates;
          quick "float range" test_rng_float_range;
          quick "int range" test_rng_int_range;
          quick "int covers all values" test_rng_int_covers_all;
          quick "int_in inclusive" test_rng_int_in;
          quick "uniformity" test_rng_uniformity;
          QCheck_alcotest.to_alcotest prop_rng_matches_reference;
          quick "save/restore continues the stream" test_rng_save_restore_continues;
          quick "int allocates nothing" test_rng_int_allocation_free;
        ] );
      ( "dist",
        [
          quick "uniform bounds" test_dist_uniform_bounds;
          quick "uniform mean/dev" test_dist_uniform_mean_dev;
          quick "uniform clamps at zero" test_dist_uniform_mean_dev_clamps;
          quick "exponential" test_dist_exponential_positive_and_mean;
          quick "normal moments" test_dist_normal_moments;
          quick "normal positive" test_dist_normal_positive;
        ] );
      ( "heap",
        [
          quick "empty" test_heap_empty;
          quick "ordering" test_heap_ordering;
          quick "pop order (1000 random)" test_heap_pop_order;
          quick "interleaved push/pop" test_heap_interleaved;
          quick "clear" test_heap_clear;
          quick "min_prio / take_min" test_heap_min_prio_take_min;
          quick "push_batch paths" test_heap_push_batch_basic;
          QCheck_alcotest.to_alcotest prop_heap_sorts;
          QCheck_alcotest.to_alcotest prop_heap_push_batch_equiv;
        ] );
      ( "stats",
        [
          quick "welford basics" test_stats_basic;
          quick "single sample" test_stats_single;
          quick "series stability" test_series_stability;
          quick "series exact tolerance" test_series_exact_tolerance;
          quick "series accessors" test_series_accessors;
          QCheck_alcotest.to_alcotest prop_stats_mean_matches_naive;
        ] );
      ( "bitset",
        [
          quick "basic" test_bitset_basic;
          quick "idempotent" test_bitset_idempotent;
          quick "first_set" test_bitset_first_set;
          quick "iter" test_bitset_iter;
          quick "bounds" test_bitset_bounds;
          QCheck_alcotest.to_alcotest prop_bitset_matches_model;
        ] );
      ( "free_tree",
        [
          quick "basic" test_free_tree_basic;
          quick "remove" test_free_tree_remove;
          quick "neighbors" test_free_tree_neighbors;
          quick "first fit" test_free_tree_first_fit;
          quick "first fit from" test_free_tree_first_fit_from;
          quick "duplicate raises" test_free_tree_duplicate_raises;
          quick "rekey" test_free_tree_rekey;
          quick "invariants" test_free_tree_invariants_small;
          quick "recycle and grow" test_free_tree_recycle_and_grow;
          QCheck_alcotest.to_alcotest prop_free_tree_model;
          QCheck_alcotest.to_alcotest prop_free_tree_first_fit_is_lowest;
        ] );
      ( "vec",
        [
          quick "push/pop" test_vec_push_pop;
          quick "get/set" test_vec_get_set;
          quick "iter/fold" test_vec_iter_fold;
          quick "clear" test_vec_clear;
        ] );
      ( "units",
        [ quick "constants" test_units_constants; quick "formatting" test_units_formatting ] );
      ( "table",
        [
          quick "render" test_table_render;
          quick "pads short rows" test_table_pads_short_rows;
          quick "csv export" test_table_csv;
          quick "rejects long rows" test_table_rejects_long_rows;
        ] );
    ]
