type t = int

let slot i = Char.code i - Char.code 'a'
let empty = 0
let is_empty s = s = 0
let singleton i = 1 lsl slot i
let add i s = s lor singleton i
let remove i s = s land lnot (singleton i)
let mem i s = s land singleton i <> 0
let of_list l = List.fold_left (fun s i -> add i s) empty l
let union a b = a lor b
let inter a b = a land b
let diff a b = a land lnot b
let equal a b = a = b
let subset a b = a land lnot b = 0
let disjoint a b = a land b = 0

let cardinal s =
  let rec go acc s = if s = 0 then acc else go (acc + (s land 1)) (s lsr 1) in
  go 0 s

let fold f s acc =
  let rec go k acc =
    if k > slot 'z' then acc
    else
      go (k + 1)
        (if s land (1 lsl k) <> 0 then f (Char.chr (k + Char.code 'a')) acc
         else acc)
  in
  go 0 acc

let to_list s = List.rev (fold (fun i acc -> i :: acc) s [])
