open Tc_tensor
open Tc_expr

type binding = { index : Index.t; tile : int }

type t = {
  tbx : binding list;
  regx : binding list;
  tby : binding list;
  regy : binding list;
  tbk : binding list;
  grid : Index.t list;
}

let prod_tiles l = List.fold_left (fun acc b -> acc * b.tile) 1 l
let size_tbx t = prod_tiles t.tbx
let size_tby t = prod_tiles t.tby
let size_regx t = prod_tiles t.regx
let size_regy t = prod_tiles t.regy
let size_tbk t = prod_tiles t.tbk
let threads_per_block t = size_tbx t * size_tby t

(* Searched without allocating: [tile_of] runs for every tensor axis of
   every simulated request. *)
let rec binding_tile i = function
  | [] -> raise_notrace Not_found
  | b :: tl -> if Index.equal b.index i then b.tile else binding_tile i tl

let tile_of t i =
  try binding_tile i t.tbx
  with Not_found -> (
    try binding_tile i t.regx
    with Not_found -> (
      try binding_tile i t.tby
      with Not_found -> (
        try binding_tile i t.regy
        with Not_found -> (
          try binding_tile i t.tbk
          with Not_found ->
            if List.exists (Index.equal i) t.grid then 1
            else raise Not_found))))

let smem_elems t =
  ((size_tbx t * size_regx t) + (size_tby t * size_regy t)) * size_tbk t

let reg_elems_per_thread t =
  (size_regx t * size_regy t) + size_regx t + size_regy t

let ceil_div a b = (a + b - 1) / b

let blocks_per_index problem t =
  let info = Problem.info problem in
  List.map
    (fun i -> (i, ceil_div (Problem.extent problem i) (tile_of t i)))
    info.Classify.externals

let num_blocks problem t =
  List.fold_left (fun acc (_, n) -> acc * n) 1 (blocks_per_index problem t)

let num_steps problem t =
  let info = Problem.info problem in
  List.fold_left
    (fun acc i -> acc * ceil_div (Problem.extent problem i) (tile_of t i))
    1 info.Classify.internals

let bindings_indices l = List.map (fun b -> b.index) l

(* The first structural rule [t] breaks for [problem], or a binding whose
   tile leaves [1, extent]: a value, so a caller that only asks whether
   the mapping fits builds no message.  Index lists are a handful long, so
   membership is a list scan. *)
type fault = Rule of string | Tile of binding

let fault problem t =
  let info = Problem.info problem in
  let mem i l = List.exists (Index.equal i) l in
  let within a b = List.for_all (fun i -> mem i b) a in
  let x_side = bindings_indices t.tbx @ bindings_indices t.regx in
  let y_side = bindings_indices t.tby @ bindings_indices t.regy in
  let mapped_ext = x_side @ y_side @ t.grid in
  let internal_mapped = bindings_indices t.tbk in
  let externals = info.Classify.externals in
  let internals = info.Classify.internals in
  if not (Index.distinct mapped_ext) then
    Some (Rule "an external index is mapped twice")
  else if not (within mapped_ext externals && within externals mapped_ext) then
    Some (Rule "mapped externals differ from the contraction's externals")
  else if not (Index.distinct internal_mapped) then
    Some (Rule "an internal index is mapped twice")
  else if
    not (within internal_mapped internals && within internals internal_mapped)
  then Some (Rule "tbk must hold exactly the internal indices")
  else if not (within x_side info.Classify.lhs_externals) then
    Some (Rule "an X-side index is not an external of the lhs input")
  else if not (within y_side info.Classify.rhs_externals) then
    Some (Rule "a Y-side index is not an external of the rhs input")
  else
    let bad b = b.tile < 1 || b.tile > Problem.extent problem b.index in
    List.find_map (List.find_opt bad) [ t.tbx; t.regx; t.tby; t.regy; t.tbk ]
    |> Option.map (fun b -> Tile b)

let validate problem t =
  match fault problem t with
  | None -> Ok ()
  | Some (Rule msg) -> Error msg
  | Some (Tile b) ->
      Error
        (Printf.sprintf "tile %d of index %c outside [1, %d]" b.tile b.index
           (Problem.extent problem b.index))

let fits problem t = Option.is_none (fault problem t)

let compare_bindings a b =
  match List.compare_lengths a b with
  | 0 ->
      List.fold_left2
        (fun acc x y ->
          if acc <> 0 then acc
          else
            match Index.compare x.index y.index with
            | 0 -> Int.compare x.tile y.tile
            | c -> c)
        0 a b
  | c -> c

let compare a b =
  let c = compare_bindings a.tbx b.tbx in
  if c <> 0 then c
  else
    let c = compare_bindings a.regx b.regx in
    if c <> 0 then c
    else
      let c = compare_bindings a.tby b.tby in
      if c <> 0 then c
      else
        let c = compare_bindings a.regy b.regy in
        if c <> 0 then c
        else
          let c = compare_bindings a.tbk b.tbk in
          if c <> 0 then c else List.compare Index.compare a.grid b.grid

let equal a b = compare a b = 0

let pp_bindings fmt l =
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_char fmt ' ')
    (fun fmt b -> Format.fprintf fmt "%c:%d" b.index b.tile)
    fmt l

let pp fmt t =
  Format.fprintf fmt
    "@[<h>TBx[%a] REGx[%a] TBy[%a] REGy[%a] TBk[%a] Grid[%a]@]" pp_bindings
    t.tbx pp_bindings t.regx pp_bindings t.tby pp_bindings t.regy pp_bindings
    t.tbk Index.list_pp t.grid
