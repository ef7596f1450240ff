(* [Rng.float], computed here from its bits so the draw does not box. *)
let[@inline] unit_float rng = float_of_int (Rng.bits53 rng) *. 0x1.0p-53

let uniform rng ~lo ~hi =
  assert (lo <= hi);
  lo +. ((hi -. lo) *. unit_float rng)

let uniform_mean_dev rng ~mean ~dev =
  let v = uniform rng ~lo:(mean -. dev) ~hi:(mean +. dev) in
  Float.max 0. v

let exponential rng ~mean =
  assert (mean > 0.);
  (* Inverse CDF; 1 - u avoids log 0. *)
  -.mean *. log (1. -. unit_float rng)

let normal rng ~mean ~std =
  let rec nonzero () =
    let u = unit_float rng in
    if u > 0. then u else nonzero ()
  in
  let u1 = nonzero () in
  let u2 = unit_float rng in
  let z = sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2) in
  mean +. (std *. z)

let normal_positive rng ~mean ~std =
  assert (mean > 0.);
  let rec draw n =
    (* With mean/std ratios used here (std = 10% of mean) rejection is
       vanishingly rare; the fallback guards pathological parameters. *)
    if n > 64 then mean
    else
      let v = normal rng ~mean ~std in
      if v > 0. then v else draw (n + 1)
  in
  draw 0
