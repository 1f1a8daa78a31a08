open Tc_gpu
open Tc_expr

type t = {
  problem : Problem.t;
  mapping : Mapping.t;
  arch : Arch.t;
  precision : Precision.t;
  schema : Schema.t;
  cost : float;
}

(* Why a schema is not usable for a configuration, or [None] if it is.
   Classic is always feasible: the pruning rules already enforced its
   footprint. *)
let schema_error ~arch ~precision ~mapping schema =
  if not (Schema.admits_precision schema precision) then
    Some
      (Printf.sprintf
         "the %s schema requires a tensor-core precision (fp16 or tf32), got \
          %s"
         (Schema.to_string schema)
         (Precision.to_string precision))
  else if Schema.pipelined schema && not arch.Arch.async_copy then
    Some
      (Printf.sprintf
         "the %s schema needs asynchronous GMEM->SMEM copies (cp.async), \
          which %s lacks"
         (Schema.to_string schema) arch.Arch.name)
  else
    let smem = Schema.smem_factor schema * Prune.smem_bytes precision mapping in
    if smem > arch.Arch.smem_per_block then
      Some
        (Printf.sprintf
           "double-buffered slabs need %d B of shared memory, above the %d B \
            block budget of %s"
           smem arch.Arch.smem_per_block arch.Arch.name)
    else
      match (Schema.mma schema, Schema.fragment_shape precision) with
      | true, Some (fm, fn, _) ->
          let mx = Mapping.size_tbx mapping * Mapping.size_regx mapping in
          let my = Mapping.size_tby mapping * Mapping.size_regy mapping in
          if mx mod fm <> 0 || my mod fn <> 0 then
            Some
              (Printf.sprintf
                 "macro-tile %dx%d does not tile into %dx%d MMA fragments" mx
                 my fm fn)
          else None
      | _ -> None

let schema_feasible ~arch ~precision ~mapping schema =
  Option.is_none (schema_error ~arch ~precision ~mapping schema)

let feasible_schemas ~arch ~precision mapping =
  List.filter (schema_feasible ~arch ~precision ~mapping) Schema.all

let make ~problem ~mapping ~arch ~precision =
  match Mapping.validate problem mapping with
  | Error e -> Error ("Plan.make: invalid mapping: " ^ e)
  | Ok () ->
      let cost = Cost.total precision problem mapping in
      Ok { problem; mapping; arch; precision; schema = Schema.Classic; cost }

let with_schema schema t =
  match
    schema_error ~arch:t.arch ~precision:t.precision ~mapping:t.mapping schema
  with
  | None -> Ok { t with schema }
  | Some e -> Error ("Plan.with_schema: " ^ e)

let threads_x t = Mapping.size_tbx t.mapping
let threads_y t = Mapping.size_tby t.mapping
let threads_per_block t = Mapping.threads_per_block t.mapping

let kernel_smem_bytes ~precision ~schema mapping =
  Schema.smem_factor schema * Prune.smem_bytes precision mapping

let kernel_regs ~precision ~schema mapping =
  Prune.regs_per_thread precision mapping + Schema.extra_regs schema

let kernel_occupancy ~arch ~precision ~schema mapping =
  Occupancy.calculate arch
    {
      Occupancy.threads_per_block = Mapping.threads_per_block mapping;
      smem_per_block = kernel_smem_bytes ~precision ~schema mapping;
      regs_per_thread = min 255 (kernel_regs ~precision ~schema mapping);
    }

let smem_bytes t =
  kernel_smem_bytes ~precision:t.precision ~schema:t.schema t.mapping

let regs_per_thread t =
  kernel_regs ~precision:t.precision ~schema:t.schema t.mapping

let num_blocks t = Mapping.num_blocks t.problem t.mapping
let num_steps t = Mapping.num_steps t.problem t.mapping

let occupancy t =
  kernel_occupancy ~arch:t.arch ~precision:t.precision ~schema:t.schema
    t.mapping

let flops t = Problem.flops t.problem

let pp fmt t =
  Format.fprintf fmt
    "@[<v>plan for %a on %s (%a, %a schema)@,\
     \  %a@,\
     \  %dx%d threads, %d blocks, %d steps, %d B smem, ~%d regs/thread@,\
     \  occupancy %.2f, model cost %.3e transactions@]"
    Problem.pp t.problem t.arch.Arch.name Precision.pp t.precision Schema.pp
    t.schema Mapping.pp t.mapping (threads_x t) (threads_y t) (num_blocks t)
    (num_steps t) (smem_bytes t) (regs_per_thread t)
    (occupancy t).Occupancy.occupancy t.cost
