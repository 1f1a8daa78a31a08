(* Monotonic wall clock and the order statistics the report uses. *)

let now_ns () = Monotonic_clock.now ()
let now () = Int64.to_float (now_ns ()) *. 1e-9

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks of a sorted array. *)
let percentile a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let x = q *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median l = percentile (sorted l) 0.5

(* First and third quartile as Python's [statistics.quantiles(xs, n=4)]
   (the default exclusive method) computes them, so the spread the
   benchmark reports is the one its acceptance check uses. *)
let quartiles l =
  let a = sorted l in
  let n = Array.length a in
  if n < 2 then (median l, median l)
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 3)

(* Interquartile distance as a share of the median. *)
let spread l =
  let q1, q3 = quartiles l in
  let m = median l in
  if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m

let geomean l =
  match l with
  | [] -> nan
  | _ ->
      exp (List.fold_left (fun acc x -> acc +. log x) 0.0 l
           /. float_of_int (List.length l))
