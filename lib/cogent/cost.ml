open Tc_tensor
open Tc_gpu
open Tc_expr

let ceil_div a b = (a + b - 1) / b

let run_of ~tile ~extent indices =
  let rec go acc = function
    | [] -> acc
    | i :: rest ->
        let t = tile i in
        if t = extent i then go (acc * t) rest else acc * t
  in
  go 1 indices

let contiguous_run problem mapping indices =
  run_of ~tile:(Mapping.tile_of mapping) ~extent:(Problem.extent problem)
    indices

let rec take_while p = function
  | i :: rest when p i -> i :: take_while p rest
  | _ -> []

let store_run problem mapping =
  let info = Problem.info problem in
  let in_tbx i =
    List.exists (fun b -> Index.equal b.Mapping.index i) mapping.Mapping.tbx
  in
  contiguous_run problem mapping (take_while in_tbx info.Classify.externals)

type breakdown = { lhs : float; rhs : float; out : float }

(* Transactions for one cooperative sweep of [width] threads over elements
   grouped in contiguous segments of length [run]: the sweep is split into
   ceil(width/run') segments of run' = min(run, width) elements, each
   costing ceil(run'/elements-per-transaction) transactions. *)
let sweep_transactions ~width ~run ~ept =
  let run = Int.max 1 (Int.min run width) in
  let segments = ceil_div width run in
  segments * ceil_div run ept

(* Staging one tile of [elems] elements: ceil(elems/width) sweeps, the
   last one no wider than the tile. *)
let tile_transactions ~width ~elems ~run ~ept =
  let rows = ceil_div elems (Int.max 1 width) in
  rows * sweep_transactions ~width:(Int.min width elems) ~run ~ept

let tile_elems mapping indices =
  List.fold_left (fun acc i -> acc * Mapping.tile_of mapping i) 1 indices

let load_transactions prec problem mapping indices =
  float_of_int
    (tile_transactions
       ~width:(Mapping.size_tbx mapping * Mapping.size_tby mapping)
       ~elems:(tile_elems mapping indices)
       ~run:(contiguous_run problem mapping indices)
       ~ept:(Precision.elems_per_transaction prec))

let transactions prec problem mapping =
  let info = Problem.info problem in
  let ept = Precision.elems_per_transaction prec in
  let steps = float_of_int (Mapping.num_steps problem mapping) in
  let blocks = float_of_int (Mapping.num_blocks problem mapping) in
  let lhs_per_step =
    load_transactions prec problem mapping
      info.Classify.expr.Ast.lhs.Ast.indices
  in
  let rhs_per_step =
    load_transactions prec problem mapping
      info.Classify.expr.Ast.rhs.Ast.indices
  in
  (* Output store: one sweep of the TBx*TBy thread grid per (REGx, REGy)
     register coordinate. *)
  let out_per_block =
    let width = Mapping.size_tbx mapping * Mapping.size_tby mapping in
    let run = store_run problem mapping in
    let sweeps = Mapping.size_regx mapping * Mapping.size_regy mapping in
    float_of_int (sweeps * sweep_transactions ~width ~run ~ept)
  in
  {
    lhs = lhs_per_step *. steps *. blocks;
    rhs = rhs_per_step *. steps *. blocks;
    out = out_per_block *. blocks;
  }

let total prec problem mapping =
  let b = transactions prec problem mapping in
  b.lhs +. b.rhs +. b.out

let bytes_moved prec problem mapping = 128.0 *. total prec problem mapping

type tensor_charge = {
  tensor : string;
  transactions : float;
  bytes : float;
  run : int;
  coalescing : float;
}

type explanation = {
  charges : tensor_charge list;
  total_transactions : float;
  total_bytes : float;
  steps : int;
  blocks : int;
  ept : int;
}

let explain prec problem mapping =
  let info = Problem.info problem in
  let ept = Precision.elems_per_transaction prec in
  let b = transactions prec problem mapping in
  let charge tensor indices total_tx =
    let elems = tile_elems mapping indices in
    let run = contiguous_run problem mapping indices in
    (* Ideal = the fully coalesced sweep over the same tile volume; the
       ratio to the charged count is the model's coalescing efficiency. *)
    let per_tile_actual =
      tile_transactions
        ~width:(Mapping.size_tbx mapping * Mapping.size_tby mapping)
        ~elems ~run ~ept
    in
    let per_tile_ideal = ceil_div elems ept in
    {
      tensor;
      transactions = total_tx;
      bytes = 128.0 *. total_tx;
      run;
      coalescing =
        float_of_int per_tile_ideal /. float_of_int (max 1 per_tile_actual);
    }
  in
  let out_charge =
    let indices = info.Classify.externals in
    let elems = tile_elems mapping indices in
    let run = store_run problem mapping in
    let width = Mapping.size_tbx mapping * Mapping.size_tby mapping in
    let sweeps = Mapping.size_regx mapping * Mapping.size_regy mapping in
    let per_tile_actual = sweeps * sweep_transactions ~width ~run ~ept in
    let per_tile_ideal = ceil_div elems ept in
    {
      tensor = "C";
      transactions = b.out;
      bytes = 128.0 *. b.out;
      run;
      coalescing =
        float_of_int per_tile_ideal /. float_of_int (max 1 per_tile_actual);
    }
  in
  {
    charges =
      [
        charge "A" info.Classify.expr.Ast.lhs.Ast.indices b.lhs;
        charge "B" info.Classify.expr.Ast.rhs.Ast.indices b.rhs;
        out_charge;
      ];
    total_transactions = b.lhs +. b.rhs +. b.out;
    total_bytes = 128.0 *. (b.lhs +. b.rhs +. b.out);
    steps = Mapping.num_steps problem mapping;
    blocks = Mapping.num_blocks problem mapping;
    ept;
  }
