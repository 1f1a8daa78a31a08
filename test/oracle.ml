(* The materialized planner, kept as the reference the streamed
   [Cogent.Pipeline.search] is checked against: enumerate every
   configuration into a list (Algorithm 2), filter it with the §IV-A rules
   and the relaxation ladder, then cost and sort every survivor
   (Algorithm 3).  The rules come from [check] below, the costs from
   [Cost.total]; with the planner it shares only Algorithm 2's per-side
   packings ([Enumerate]), not its product, tables, tallies or heap. *)

open Tc_expr
open Cogent

module MSet = Set.Make (struct
  type t = Mapping.t

  let compare = Mapping.compare
end)

(* The Cartesian product of the two sides' packings and the TB_k
   packings, deduplicated through a set. *)
let enumerate problem =
  let info = Problem.info problem in
  let x_sides =
    Enumerate.enumerate_side problem ~fvi:(Some info.Classify.out_fvi)
      ~externals:info.Classify.lhs_externals
  in
  let y_sides =
    Enumerate.enumerate_side problem ~fvi:(Some info.Classify.rhs_fvi)
      ~externals:info.Classify.rhs_externals
  in
  let tbks = Enumerate.enumerate_tbk problem ~internals:info.Classify.internals in
  let used (side : Enumerate.side) =
    List.map (fun b -> b.Mapping.index) (side.Enumerate.tb @ side.Enumerate.reg)
  in
  let configs =
    List.concat_map
      (fun (x : Enumerate.side) ->
        List.concat_map
          (fun (y : Enumerate.side) ->
            let mapped = used x @ used y in
            let grid =
              List.filter
                (fun i -> not (List.mem i mapped))
                info.Classify.externals
            in
            List.map
              (fun tbk ->
                {
                  Mapping.tbx = x.Enumerate.tb;
                  regx = x.Enumerate.reg;
                  tby = y.Enumerate.tb;
                  regy = y.Enumerate.reg;
                  tbk;
                  grid;
                })
              tbks)
          y_sides)
      x_sides
  in
  MSet.elements (MSet.of_list configs)

(* The candidate space as the planner sees it: every coordinate of
   [Candidates], in lexicographic order. *)
let candidates problem =
  let c = Candidates.create problem in
  List.concat
    (List.init (Candidates.num_chunks c) (fun x ->
         List.concat
           (List.init (Candidates.num_y c) (fun y ->
                List.init (Candidates.num_tbk c) (fun k ->
                    Candidates.mapping c x y k)))))

(* The first rule of [checker]'s classes a materialized mapping violates:
   [Prune.verdict] on the sizes the planner reads from its tables. *)
let check checker prec problem m =
  let info = Problem.info problem in
  let tile = Mapping.tile_of m in
  match
    Prune.verdict checker
      ~threads:(Mapping.threads_per_block m)
      ~smem:(Prune.smem_bytes prec m)
      ~regs:(Prune.regs_per_thread prec m)
      ~blocks:(Mapping.num_blocks problem m)
      ~out_tile:(tile info.Classify.out_fvi)
      ~lhs_tile:(tile info.Classify.lhs_fvi)
      ~rhs_tile:(tile info.Classify.rhs_fvi)
  with
  | -1 -> Ok ()
  | k -> Error (Prune.reason_of_index k)

(* Keep the configurations passing every rule; when none do, walk the
   relaxation ladder.  Reject tallies count the primary pass only. *)
let filter ?(performance = true) arch prec problem mappings =
  let tally = Array.make Prune.num_reasons 0 in
  let primary = Prune.checker ~performance arch problem in
  let strict =
    List.filter
      (fun m ->
        match check primary prec problem m with
        | Ok () -> true
        | Error r ->
            let k = Prune.reason_index r in
            tally.(k) <- tally.(k) + 1;
            false)
      mappings
  in
  let kept, relaxed, relax_attempts =
    if strict <> [] then (strict, false, 0)
    else
      let rec try_relax n = function
        | [] -> ([], true, n)
        | classes :: rest -> (
            let c = Prune.checker_of_classes classes arch problem in
            match
              List.filter (fun m -> check c prec problem m = Ok ()) mappings
            with
            | [] -> try_relax (n + 1) rest
            | l -> (l, true, n + 1))
      in
      try_relax 0 Prune.relax_attempts_classes
  in
  ( kept,
    Prune.stats_of_tally ~enumerated:(List.length mappings)
      ~kept:(List.length kept) ~relaxed ~relax_attempts tally )

(* Every configuration with its cost, ascending; ties broken by
   [Mapping.compare]. *)
let rank prec problem mappings =
  List.map (fun m -> (m, Cost.total prec problem m)) mappings
  |> List.sort (fun (m1, c1) (m2, c2) ->
         match Float.compare c1 c2 with 0 -> Mapping.compare m1 m2 | c -> c)

(* The whole materialized search, with [Pipeline.search]'s semantics:
   enumerate, filter, rank, keep [topk]. *)
let search ?performance ~topk arch prec problem =
  let kept, stats = filter ?performance arch prec problem (enumerate problem) in
  (List.filteri (fun k _ -> k < topk) (rank prec problem kept), stats)

(* Every full/partial boundary pattern of a tiled sweep, summed one by one:
   each axis takes its full cut ([full] instances) or, when [rem > 0], its
   partial one (one instance); a pattern adds its instance count times
   [Txcount.staged_sweep] of its axes.  The sum [Txcount.boundary_sum]
   forms in closed form, as the simulator summed it before. *)
let boundary_enumeration ~width ~ept (bs : Txcount.boundary array) =
  let n = Array.length bs in
  let rec go k cnt axes =
    if k < 0 then cnt *. float_of_int (Txcount.staged_sweep ~width ~ept axes)
    else
      let b = bs.(k) in
      let with_cut cut =
        let axes = Array.copy axes in
        axes.(k) <- { b.Txcount.axis with Txcount.cut };
        axes
      in
      (if b.Txcount.full > 0 then
         go (k - 1) (cnt *. float_of_int b.Txcount.full)
           (with_cut b.Txcount.axis.Txcount.cut)
       else 0.0)
      +. if b.Txcount.rem > 0 then go (k - 1) cnt (with_cut b.Txcount.rem) else 0.0
  in
  go (n - 1) 1.0 (Array.map (fun b -> b.Txcount.axis) bs)

(* The dispatch regret as serving priced it by building a plan at the
   request's own extents: [Plan.make] (which validates the mapping and
   computes the model cost), the served schema, [Simkernel.run]. *)
let regret ~ctx ~own (d : Tc_audit.Audit.dispatch) (plan : Plan.t) :
    Tc_audit.Audit.regret =
  match
    Plan.make ~problem:own ~mapping:plan.Plan.mapping ~arch:plan.Plan.arch
      ~precision:plan.Plan.precision
  with
  | Ok own_plan ->
      let own_plan = Result.get_ok (Plan.with_schema d.Tc_audit.Audit.schema own_plan) in
      let oc = (Tc_sim.Simkernel.run own_plan).Tc_sim.Simkernel.time_s in
      let ot = (Tc_ttgt.Ttgt.run_ctx ctx own).Tc_ttgt.Ttgt.time_s in
      let regret =
        match d.Tc_audit.Audit.engine with
        | Tc_audit.Audit.Cogent_kernel -> Float.max 0.0 (oc -. ot)
        | Tc_audit.Audit.Ttgt_pipeline -> Float.max 0.0 (ot -. oc)
      in
      { own_cogent_s = oc; own_ttgt_s = ot; regret_s = regret; own_approx = false }
  | Error _ ->
      {
        own_cogent_s = d.Tc_audit.Audit.cogent_s;
        own_ttgt_s = d.Tc_audit.Audit.ttgt_s;
        regret_s = 0.0;
        own_approx = true;
      }

(* The plan-cache key as it was formatted with [Printf]; stored plan-store
   rows are keyed by these bytes. *)
let cache_key (ctx : Ctx.t) problem =
  Printf.sprintf "%s|%s|%s|%s%s"
    (Ast.tccg_string (Problem.info problem).Classify.original)
    ctx.Ctx.arch.Tc_gpu.Arch.name
    (Tc_gpu.Precision.to_string ctx.Ctx.precision)
    (String.concat ","
       (List.map
          (fun i ->
            Printf.sprintf "%c:%d" i
              (let n = Problem.extent problem i in
               let rec go p = if p >= n || p > max_int / 2 then p else go (2 * p) in
               let hi = go 1 in
               let lo = max 1 (hi / 2) in
               if n - lo <= hi - n then lo else hi))
          (Classify.all_indices (Problem.info problem))))
    (match ctx.Ctx.schema with
    | None -> ""
    | Some s -> "|" ^ Tc_gpu.Schema.to_string s)
