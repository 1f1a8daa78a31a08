open Tc_tensor
open Tc_gpu

type result = {
  time_s : float;
  bytes : float;
  efficiency : float;
  identity : bool;
}

(* The fraction of peak bandwidth a well-tiled transpose with large FVIs on
   both sides reaches, matching published cuTT results. *)
let base_efficiency = 0.65

let run (arch : Arch.t) prec ~sizes ~src ~dst =
  (* A permutation: the same indices, each as often, in another order. *)
  if
    not
      (List.equal Index.equal
         (List.sort Index.compare src)
         (List.sort Index.compare dst))
  then
    invalid_arg
      (Printf.sprintf "Transpose_model: %s is not a permutation of %s"
         (Index.list_to_string dst) (Index.list_to_string src));
  let extent i =
    match Index.Map.find_opt i sizes with
    | Some n -> n
    | None -> invalid_arg (Printf.sprintf "Transpose_model: no extent for %c" i)
  in
  let elems =
    List.fold_left (fun acc i -> acc * extent i) 1 src |> float_of_int
  in
  if List.for_all2 Index.equal src dst then
    { time_s = 0.0; bytes = 0.0; efficiency = 1.0; identity = true }
  else begin
    (* Coalescing on each side is limited by the contiguous run available
       at that side's fastest-varying indices; a tiled kernel needs runs of
       about two warps worth of elements to stream at full efficiency. *)
    let run_length order =
      (* contiguous run = product of leading extents until the first index
         that is not in the same leading position on the other side;
         conservatively we use just the FVI extent unless both sides share
         the leading index *)
      match order with [] -> 1 | fvi :: _ -> extent fvi
    in
    let sat = 32.0 in
    let side_eff order =
      let r = float_of_int (run_length order) in
      Float.min 1.0 (r /. sat)
    in
    (* If the FVI is preserved, both sides stream along it together. *)
    let fvi_preserved = Index.equal (List.hd src) (List.hd dst) in
    let eff_shape =
      if fvi_preserved then Float.min 1.0 (side_eff src +. 0.25)
      else Float.min (side_eff src) (side_eff dst)
    in
    let efficiency = base_efficiency *. Float.max 0.05 eff_shape in
    let bytes = 2.0 *. elems *. float_of_int (Precision.bytes prec) in
    let time_s =
      (bytes /. (arch.Arch.dram_bw_gbs *. 1e9 *. efficiency))
      +. (arch.Arch.kernel_launch_us *. 1e-6)
    in
    { time_s; bytes; efficiency; identity = false }
  end
