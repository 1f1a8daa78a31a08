open Tc_gpu

let log_src = Logs.Src.create "cogent.driver" ~doc:"COGENT code generation"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = {
  plan : Plan.t;
  ranked : (Mapping.t * float) list;
  prune_stats : Prune.stats;
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
  let t0 = Tc_obs.Clock.now () in
  let r = f () in
  Tc_obs.Metrics.observe
    (Tc_obs.Metrics.histogram ("cogent.driver.phase_wall_seconds." ^ name))
    (Tc_obs.Clock.now () -. t0);
  r

let default_topk = 8

let run (ctx : Ctx.t) ?(topk = default_topk) problem =
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
     bound-aborting cost evaluation, fused (see {!Pipeline}). *)
  let outcome =
    Trace.with_span "driver.pipeline" (fun () ->
        let o =
          timed_phase "pipeline" (fun () ->
              Pipeline.search
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
  (* The pipeline itself emits no metrics (its chunk scans run on pool
     workers); the per-search counters land here, post-merge, on the
     calling domain — same names the materialized phases used. *)
  Prune.emit_stats_metrics prune_stats;
  Log.debug (fun m ->
      m "%a: enumerated %d, kept %d%s" Tc_expr.Problem.pp problem
        prune_stats.Prune.enumerated prune_stats.Prune.kept
        (if prune_stats.Prune.relaxed then " (relaxed)" else ""));
  match outcome.Pipeline.ranked with
  | [] -> Error (No_viable_mapping prune_stats)
  | _ :: _ as ranked ->
      (* Every ranked mapping was enumerated for [problem], so [Plan.make]
         accepts it; a rejection would be a planner bug, reported as a
         typed error like any other bad problem. *)
      let plan_of mapping =
        Plan.make ~problem ~mapping ~arch ~precision
        |> Result.map_error (fun m -> Bad_problem m)
      in
      let with_schema s p =
        Plan.with_schema s p
        |> Result.map_error (fun m -> Infeasible_schema (s, m))
      in
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
      (* The unmeasured pick: the first ranked mapping with a lane, under
         its first lane — unforced, the top mapping under Classic (always
         feasible).  A forced schema that no ranked mapping admits is a
         typed error — never an exception — so the CLI can print why and
         exit: e.g. [--schema mma] with an fp64 problem, or
         double-buffered slabs that overflow SMEM on every candidate. *)
      let model_pick () =
        match
          List.find_map
            (fun (m, _) ->
              match schemas_of m with s :: _ -> Some (m, s) | [] -> None)
            ranked
        with
        | Some (m, s) -> Result.bind (plan_of m) (with_schema s)
        | None -> (
            match forced with
            | None -> Error (No_viable_mapping prune_stats)
            | Some s ->
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
        | Some measure ->
            (* One plan per refined mapping (validated and costed once);
               its schema lanes are derived from it. *)
            let rec lanes acc = function
              | [] -> Ok (List.rev acc)
              | (m, _) :: rest -> (
                  match schemas_of m with
                  | [] -> lanes acc rest
                  | schemas -> (
                      match plan_of m with
                      | Error e -> Error e
                      | Ok p ->
                          let rec raced acc = function
                            | [] -> lanes acc rest
                            | s :: tl -> (
                                match with_schema s p with
                                | Ok q -> raced (q :: acc) tl
                                | Error e -> Error e)
                          in
                          raced acc schemas))
            in
            match
              lanes [] (List.filteri (fun k _ -> k < max 1 ctx.Ctx.refine) ranked)
            with
            | Error e -> Error e
            | Ok candidates ->
            Trace.with_span "driver.refine"
              ~args:
                (if traced then
                   [ ("candidates", Trace.Int (List.length candidates)) ]
                 else [])
            @@ fun () ->
            timed_phase "refine" @@ fun () ->
            (* [candidates] starts with the model's pick under its first
               lane, so measuring exactly the candidate list (no extra seed
               run) costs [refine * schemas] simulator calls; the
               index-ordered reduction with a strict [>] keeps the earliest
               candidate on ties, exactly like the sequential fold it
               replaces. *)
            (match
               Tc_par.Pool.fold_best
                 ~better:(fun (_, g) (_, bg) -> g > bg)
                 (fun p -> (p, measure p))
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
          bound_aborted = outcome.Pipeline.bound_aborted;
        }

let no_prune_stats =
  Prune.stats_of_tally ~enumerated:0 ~kept:0 ~relaxed:false ~relax_attempts:0
    (Array.make Prune.num_reasons 0)

let of_plan (plan : Plan.t) =
  {
    plan;
    ranked = [ (plan.Plan.mapping, plan.Plan.cost) ];
    prune_stats = no_prune_stats;
    bound_aborted = 0;
  }

let run_exn ctx ?topk problem =
  match run ctx ?topk problem with
  | Ok t -> t
  | Error e -> invalid_arg ("Driver.run_exn: " ^ error_to_string e)
