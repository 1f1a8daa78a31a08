open Tc_tensor
open Tc_gpu
open Tc_expr
open Cogent

let with_extents problem l =
  List.map (fun i -> (i, Problem.extent problem i)) l

(* One side of the fixed recipe: pack the thread-block dimension toward
   [tb_target] starting from [fvi] (when external), then give the first
   leftover external a register tile of up to [reg_target]. *)
let side problem ~tb_target ~reg_target ~fvi ~externals =
  let first, rest =
    match fvi with
    | Some f when List.exists (Index.equal f) externals ->
        (Some (f, Problem.extent problem f),
         List.filter (fun i -> not (Index.equal i f)) externals)
    | _ -> (None, externals)
  in
  let tb, _ =
    Enumerate.pack_greedy ~target:tb_target ~first
      ~candidates:(with_extents problem rest)
  in
  let used = List.map (fun b -> b.Mapping.index) tb in
  let remaining =
    List.filter (fun i -> not (List.exists (Index.equal i) used)) externals
  in
  let reg =
    match remaining with
    | [] -> []
    | i :: _ ->
        let extent = Problem.extent problem i in
        [ { Mapping.index = i; tile = min reg_target extent } ]
  in
  (tb, reg)

let mapping_with problem ~tb_target ~reg_target ~tbk_target =
  let info = Problem.info problem in
  let tbx, regx =
    side problem ~tb_target ~reg_target ~fvi:(Some info.Classify.out_fvi)
      ~externals:info.Classify.lhs_externals
  in
  let tby, regy =
    side problem ~tb_target ~reg_target ~fvi:(Some info.Classify.rhs_fvi)
      ~externals:info.Classify.rhs_externals
  in
  let tbk_packed, _ =
    Enumerate.pack_greedy ~target:tbk_target ~first:None
      ~candidates:(with_extents problem info.Classify.internals)
  in
  let tbk =
    let used = List.map (fun b -> b.Mapping.index) tbk_packed in
    tbk_packed
    @ List.filter_map
        (fun index ->
          if List.exists (Index.equal index) used then None
          else Some { Mapping.index; tile = 1 })
        info.Classify.internals
  in
  let x_used = List.map (fun b -> b.Mapping.index) (tbx @ regx) in
  let y_used = List.map (fun b -> b.Mapping.index) (tby @ regy) in
  let grid =
    List.filter
      (fun i ->
        not
          (List.exists (Index.equal i) x_used
          || List.exists (Index.equal i) y_used))
      info.Classify.externals
  in
  { Mapping.tbx; regx; tby; regy; tbk; grid }

let mapping problem =
  mapping_with problem ~tb_target:16 ~reg_target:4 ~tbk_target:16

let plan ?(arch = Arch.v100) ?(precision = Precision.FP64) problem =
  (* Halve targets until the fixed recipe satisfies hardware limits. *)
  let rec fit tb reg tbk =
    let m = mapping_with problem ~tb_target:tb ~reg_target:reg ~tbk_target:tbk in
    let hardware_ok =
      Mapping.threads_per_block m <= arch.Arch.max_threads_per_block
      && Prune.smem_bytes precision m <= arch.Arch.smem_per_block
      && Prune.regs_per_thread precision m <= arch.Arch.regs_per_thread_max
      && (Prune.occupancy arch precision m).Occupancy.limiter
         <> Occupancy.Invalid
    in
    if hardware_ok then m
    else if tb > 4 then fit (tb / 2) reg tbk
    else if reg > 1 then fit tb (reg / 2) tbk
    else if tbk > 1 then fit tb reg (tbk / 2)
    else m (* smallest recipe *)
  in
  (* The recipe maps every index once, on its side, with tiles clamped to
     the extents, so [Plan.make] accepts it for [problem]. *)
  match Plan.make ~problem ~mapping:(fit 16 4 16) ~arch ~precision with
  | Ok plan -> plan
  | Error e -> invalid_arg ("Nwgen.plan: " ^ e)
