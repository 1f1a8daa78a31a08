open Tc_gpu

let log_src = Logs.Src.create "cogent.driver" ~doc:"COGENT code generation"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = {
  plan : Plan.t;
  ranked : (Mapping.t * float) list;
  prune_stats : Prune.stats;
  naive_space : float;
  degraded : bool;
  bound_aborted : int;
}

type measure = Ctx.measure

type error =
  | No_viable_mapping of Prune.stats
  | Bad_problem of string
  | Infeasible_schema of Schema.t * string

let pp_error ppf = function
  | No_viable_mapping s ->
      Format.fprintf ppf
        "no hardware-feasible configuration for this contraction (enumerated \
         %d, all rejected)"
        s.Prune.enumerated
  | Bad_problem m -> Format.pp_print_string ppf m
  | Infeasible_schema (_, m) -> Format.pp_print_string ppf m

let error_to_string e = Format.asprintf "%a" pp_error e

(* Planner phase times, named with "wall" so the CI replay gate's
   deterministic subset excludes them (they vary run to run even at a
   fixed job count). *)
let timed_phase name f =
  let t0 = Sys.time () in
  let r = f () in
  Tc_obs.Metrics.observe
    (Tc_obs.Metrics.histogram ("cogent.driver.phase_wall_seconds." ^ name))
    (Float.max 0.0 (Sys.time () -. t0));
  r

let generate_one (ctx : Ctx.t) ~topk problem =
  let arch = ctx.Ctx.arch and precision = ctx.Ctx.precision in
  let open Tc_obs in
  (* Span arguments are built only under an installed trace: printing the
     problem alone costs more than a cache hit. *)
  let traced = Trace.enabled () in
  Trace.with_span "driver.generate"
    ~args:
      (if traced then
         [
           ("problem", Trace.String (Format.asprintf "%a" Tc_expr.Problem.pp problem));
           ("arch", Trace.String arch.Arch.name);
           ("precision", Trace.String (Precision.to_string precision));
         ]
       else [])
  @@ fun () ->
  Metrics.incr (Metrics.counter "cogent.driver.generations");
  (* One streamed pass over the candidate space: enumerate → prune →
     bound-aborting cost evaluation, fused (see {!Pipeline}).  The search
     budget keeps the serving layer's worst case bounded: rank only the
     first [budget] survivors (enumeration order), degrading — at budget
     0/1 — to the heuristic top-of-enumeration plan. *)
  let outcome =
    Trace.with_span "driver.pipeline" (fun () ->
        let o =
          timed_phase "pipeline" (fun () ->
              Pipeline.search ?budget:ctx.Ctx.budget
                ~topk:(max (max 1 ctx.Ctx.refine) (max 1 topk))
                arch precision problem)
        in
        if traced then
          Trace.add_args
            [
              ("enumerated", Trace.Int o.Pipeline.stats.Prune.enumerated);
              ("kept", Trace.Int o.Pipeline.stats.Prune.kept);
              ("bound_aborted", Trace.Int o.Pipeline.bound_aborted);
              ("relaxed", Trace.Bool o.Pipeline.stats.Prune.relaxed);
            ];
        o)
  in
  let prune_stats = outcome.Pipeline.stats in
  let degraded = outcome.Pipeline.degraded in
  (* The pipeline itself emits no metrics (its chunk scans run on pool
     workers); the per-search counters land here, post-merge, on the
     calling domain — same names the materialized phases used. *)
  Prune.emit_stats_metrics prune_stats;
  if degraded then
    Metrics.incr (Metrics.counter "cogent.driver.degraded_searches");
  Log.debug (fun m ->
      m "%a: enumerated %d, kept %d%s%s" Tc_expr.Problem.pp problem
        prune_stats.Prune.enumerated prune_stats.Prune.kept
        (if prune_stats.Prune.relaxed then " (relaxed)" else "")
        (if degraded then " (budget-truncated)" else ""));
  match outcome.Pipeline.ranked with
  | [] -> Error (No_viable_mapping prune_stats)
  | (top, _) :: _ as ranked ->
      let plan_of mapping = Plan.make ~problem ~mapping ~arch ~precision in
      let forced = ctx.Ctx.schema in
      (* Kernel schemas a candidate is raced under: the forced one (when
         feasible for this mapping), or every feasible schema —
         Classic-first, so the index-ordered reduction below keeps the
         classic kernel on ties and on devices without async copies the
         race degenerates to the historical classic-only refinement. *)
      let schemas_of m =
        match forced with
        | Some s ->
            if Plan.schema_feasible ~arch ~precision ~mapping:m s then [ s ]
            else []
        | None -> Plan.feasible_schemas ~arch ~precision m
      in
      (* A forced schema that no ranked mapping admits is a typed error —
         never an exception — so the CLI can print why and exit: e.g.
         [--schema mma] with an fp64 problem, or double-buffered slabs
         that overflow SMEM on every candidate. *)
      let model_pick () =
        match forced with
        | None -> Ok (plan_of top)
        | Some s -> (
            match
              List.find_opt
                (fun (m, _) -> Plan.schema_feasible ~arch ~precision ~mapping:m s)
                ranked
            with
            | Some (m, _) -> Ok (Plan.with_schema s (plan_of m))
            | None ->
                Error
                  (Infeasible_schema
                     ( s,
                       Printf.sprintf
                         "kernel schema %s is not feasible for this problem \
                          on %s at %s (%s)"
                         (Schema.to_string s) arch.Arch.name
                         (Precision.to_string precision)
                         (if not (Schema.admits_precision s precision) then
                            "MMA fragments require fp16 or tf32"
                          else if not arch.Arch.async_copy then
                            "device has no async copies"
                          else
                            "no ranked mapping fits the doubled SMEM slabs \
                             or fragment shape") )))
      in
      (* Benchmark the top model-ranked candidates and keep the fastest —
         the paper auto-tunes across the model-selected set (§VI). *)
      let selected =
        match ctx.Ctx.measure with
        | None -> model_pick ()
        | Some run ->
            (* One plan per refined mapping (validated and costed once);
               its schema lanes are derived from it. *)
            let candidates =
              List.filteri (fun k _ -> k < max 1 ctx.Ctx.refine) ranked
              |> List.concat_map (fun (m, _) ->
                     match schemas_of m with
                     | [] -> []
                     | schemas ->
                         let p = plan_of m in
                         List.map (fun s -> Plan.with_schema s p) schemas)
            in
            Trace.with_span "driver.refine"
              ~args:
                (if traced then
                   [ ("candidates", Trace.Int (List.length candidates)) ]
                 else [])
            @@ fun () ->
            timed_phase "refine" @@ fun () ->
            (* [candidates] starts with [top] under its first schema, so
               measuring exactly the candidate list (no extra seed run)
               costs [refine * schemas] simulator calls; the index-ordered
               reduction with a strict [>] keeps the earliest candidate on
               ties, exactly like the sequential fold it replaces. *)
            (match
               Tc_par.Pool.fold_best
                 ~better:(fun (_, g) (_, bg) -> g > bg)
                 (fun p -> (p, run p))
                 candidates
             with
            | Some (best, _) -> Ok best
            | None -> model_pick ())
      in
      match selected with
      | Error e -> Error e
      | Ok plan ->
      Log.info (fun m ->
          m "selected %a [%s schema] (cost %.3e)" Mapping.pp plan.Plan.mapping
            (Schema.to_string plan.Plan.schema)
            plan.Plan.cost);
      if traced then
        Trace.add_args
          [
            ("kept", Trace.Int prune_stats.Prune.kept);
            ("selected_cost", Trace.Float plan.Plan.cost);
            ("degraded", Trace.Bool degraded);
            ("bound_aborted", Trace.Int outcome.Pipeline.bound_aborted);
          ];
      (* The accuracy observatory's driver-side hook: every selected
         plan's model cost lands in a histogram, so a ledger-less run
         still exposes the predicted-cost distribution.  Bucket counts
         are deterministic; the _sum series is a float reduction in pool
         order, so the instrument stays out of the CI replay gate's
         deterministic subset (which greps cogent_serve_/cogent_audit_
         only). *)
      Metrics.observe
        (Metrics.histogram "cogent.driver.selected_cost")
        plan.Plan.cost;
      Ok
        {
          plan;
          ranked;
          prune_stats;
          naive_space = Enumerate.naive_space_size problem;
          degraded;
          bound_aborted = outcome.Pipeline.bound_aborted;
        }

let default_topk = 8

let run ctx ?(auto_split = false) ?(topk = default_topk) ?trace problem =
  let body () =
    let base = generate_one ctx ~topk problem in
    if not auto_split then base
    else
      match (Tc_expr.Split.auto problem, ctx.Ctx.measure, base) with
      | (split_problem, _ :: _), Some run, Ok base_t -> (
          match generate_one ctx ~topk split_problem with
          | Error _ -> base
          | Ok split_t ->
              if run split_t.plan > run base_t.plan then Ok split_t else base)
      | _ -> base
  in
  match trace with
  | None -> body ()
  | Some t -> Tc_obs.Trace.with_installed t body

let run_exn ctx ?auto_split ?topk ?trace problem =
  match run ctx ?auto_split ?topk ?trace problem with
  | Ok t -> t
  | Error e -> invalid_arg ("Driver.run_exn: " ^ error_to_string e)

let top_plans ?(n = 5) t =
  List.filteri (fun k _ -> k < n) t.ranked
  |> List.map (fun (mapping, _) ->
         Plan.make ~problem:t.plan.Plan.problem ~mapping ~arch:t.plan.Plan.arch
           ~precision:t.plan.Plan.precision)
