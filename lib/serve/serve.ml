open Tc_gpu
module Audit = Tc_audit.Audit

type engine = Audit.engine = Cogent_kernel | Ttgt_pipeline

let engine_name = Audit.engine_name

type error =
  | Bad_request of string
  | Generation of Cogent.Driver.error
  | Crashed of string

let pp_error ppf = function
  | Bad_request m -> Format.fprintf ppf "bad request: %s" m
  | Generation e -> Cogent.Driver.pp_error ppf e
  | Crashed m -> Format.fprintf ppf "generator crashed: %s" m

let error_to_string e = Format.asprintf "%a" pp_error e

type outcome = {
  key : string;
  cached : bool;
  degraded : bool;
  engine : engine;
  schema : Schema.t;
  pipelined : (Schema.t * float) option;
  cogent_time_s : float;
  ttgt_time_s : float;
  predicted_s : float;
  gflops : float;
}

(* Dispatch label as reported everywhere observable: the schema rides
   along when a pipelined kernel won, so classic-only workloads (and
   devices without async copies) keep the historical "cogent" label. *)
let outcome_strategy o =
  match o.engine with
  | Ttgt_pipeline -> engine_name Ttgt_pipeline
  | Cogent_kernel ->
      if Schema.pipelined o.schema then
        engine_name Cogent_kernel ^ "-" ^ Schema.to_string o.schema
      else engine_name Cogent_kernel

type response = {
  id : int;
  expr : string;
  arch : string;
  precision : string;
  result : (outcome, error) result;
}

type summary = {
  requests : int;
  distinct : int;
  loaded : int;
  generations : int;
  hits : int;
  degraded : int;
  errors : int;
  to_cogent : int;
  to_pipelined : int;
  to_ttgt : int;
  regrets : int;
}

type report = {
  responses : response list;
  summary : summary;
  notices : string list;
}

type session = {
  ctx : Cogent.Ctx.t;
  cache : Cogent.Cache.t;
  store : (string * Planstore.origin) option;
  loaded : int;
  audit : Audit.collector option;
}

let open_session ?store ?audit ?flight_capacity ctx =
  Cogent.Ctx.install_jobs ctx;
  Option.iter (fun n -> Tc_obs.Flightrec.set_capacity n) flight_capacity;
  let cache = Cogent.Cache.create () in
  match store with
  | None -> Ok { ctx; cache; store = None; loaded = 0; audit }
  | Some dir -> (
      match Planstore.read ~dir with
      | Error m -> Error m
      | Ok (rows, origin) ->
          List.iter (fun (k, r) -> Cogent.Cache.install cache k r) rows;
          Ok
            {
              ctx;
              cache;
              store = Some (dir, origin);
              loaded = List.length rows;
              audit;
            })

let close_session s =
  match s.store with
  | None -> ()
  | Some (dir, origin) ->
      Planstore.save ~origin ~dir (Cogent.Cache.entries s.cache)

(* Request ids as they appear everywhere observable: span/flight-recorder
   attribution and the per-request entries of the JSON report. *)
let request_label id = Printf.sprintf "req-%03d" id

(* Per-request telemetry instruments.  [predicted_seconds] records model
   predictions — a pure function of the workload, so its exposition (and
   quantile summary) is byte-identical across job counts and cold/warm
   stores; the [_wall_] instruments record wall clock and are excluded
   from the CI replay gate's deterministic subset by name. *)
let predicted_hist () = Tc_obs.Metrics.histogram "cogent.serve.predicted_seconds"
let request_wall_hist () =
  Tc_obs.Metrics.histogram "cogent.serve.request_wall_seconds"
let generate_wall_hist () =
  Tc_obs.Metrics.histogram "cogent.serve.generate_wall_seconds"
let generation_failures () =
  Tc_obs.Metrics.counter "cogent.serve.generation_failures"

let run session items =
  Tc_obs.Trace.with_span "serve.batch"
    ~args:[ ("requests", Tc_obs.Trace.Int (List.length items)) ]
  @@ fun () ->
  Tc_obs.Metrics.set
    (Tc_obs.Metrics.gauge "cogent.serve.queue_depth")
    (float_of_int (List.length items));
  let before = Cogent.Cache.stats session.cache in
  let default = session.ctx in
  (* Resolve every line to either an error response or a work item; the
     work item's key is the dedup and dispatch handle.  Each line is
     resolved inside its own request scope so the parse step is already
     attributed to the request in the trace. *)
  let resolved =
    List.map
      (fun item ->
        match item with
        | Error (id, msg) ->
            Tc_obs.Flightrec.record ~error:("bad request: " ^ msg)
              (request_label id);
            Error
              {
                id;
                expr = "";
                arch = default.Cogent.Ctx.arch.Arch.name;
                precision = Precision.to_string default.Cogent.Ctx.precision;
                result = Error (Bad_request msg);
              }
        | Ok req -> (
            let rid = request_label req.Request.id in
            match
              Tc_obs.Trace.with_request ~id:rid
                ~attrs:[ ("expr", Tc_obs.Trace.String req.Request.expr) ]
                "serve.parse"
                (fun () -> Request.problem req)
            with
            | Error m ->
                Tc_obs.Flightrec.record ~expr:req.Request.expr
                  ~error:("bad request: " ^ m) rid;
                Error
                  {
                    id = req.Request.id;
                    expr = req.Request.expr;
                    arch = req.Request.arch.Arch.name;
                    precision = Precision.to_string req.Request.precision;
                    result = Error (Bad_request m);
                  }
            | Ok problem ->
                let ctx = Request.ctx ~default req in
                Ok (req, ctx, problem, Cogent.Cache.key ctx problem)))
      items
  in
  (* Distinct keys in first-appearance order: the fan-out domain.  The
     order is a pure function of the workload, so [Pool.map] keeps the
     batch bit-identical at any job count.  Each distinct search carries
     its first requester's id, so the whole generation subtree — prune,
     cost ranking, refinement, wherever the pool schedules it — stays
     attributed to that request in the trace. *)
  let seen = Hashtbl.create 16 in
  let distinct =
    List.filter_map
      (function
        | Ok (req, ctx, problem, k) when not (Hashtbl.mem seen k) ->
            Hashtbl.add seen k ();
            Some (k, ctx, problem, request_label req.Request.id)
        | _ -> None)
      resolved
  in
  let warm = Hashtbl.create 16 in
  List.iter
    (fun (k, _, _, _) ->
      if Cogent.Cache.mem session.cache k then Hashtbl.add warm k ())
    distinct;
  let generated =
    Tc_par.Pool.map
      (fun (k, ctx, problem, rid) ->
        Tc_obs.Trace.with_request ~id:rid
          ~attrs:[ ("key", Tc_obs.Trace.String k) ]
          "serve.generate"
        @@ fun () ->
        let t0 = Sys.time () in
        let r =
          match Cogent.Cache.find_or_generate_ctx session.cache ctx problem with
          | Ok r -> (k, Ok r)
          | Error e -> (k, Error (Generation e))
          | exception e -> (k, Error (Crashed (Printexc.to_string e)))
        in
        (* The accuracy observatory's ground truth — the interpreter's
           counter-only schedule replay — is the expensive part of a
           sample, so it runs here, once per distinct key, wherever the
           pool scheduled this search (the result is a pure function of
           the plan, so batch output stays bit-identical at any job
           count). *)
        let measured =
          match (session.audit, r) with
          | Some _, (_, Ok d) ->
              Some
                (Tc_obs.Trace.with_span "audit.measure" (fun () ->
                     Cogent.Interp.measure d.Cogent.Driver.plan))
          | _ -> None
        in
        Tc_obs.Metrics.observe (generate_wall_hist ())
          (Float.max 0.0 (Sys.time () -. t0));
        (r, measured))
      distinct
  in
  let measures = Hashtbl.create 16 in
  List.iter
    (fun ((k, _), measured) ->
      Option.iter (fun c -> Hashtbl.replace measures k c) measured)
    generated;
  let generated = List.map fst generated in
  let plans = Hashtbl.create 16 in
  List.iter (fun (k, r) -> Hashtbl.replace plans k r) generated;
  (* Failed searches become stderr-destined notices — assembled here,
     strictly after the parallel section, and printed by the caller (the
     DESIGN.md parallel-runtime rule: print only after the fan-out), so
     the summary can never interleave with pool worker output. *)
  let notices =
    List.filter_map
      (fun (k, r, rid) ->
        match r with
        | Ok _ -> None
        | Error e ->
            Tc_obs.Metrics.incr (generation_failures ());
            Tc_obs.Trace.instant "serve.generation_failed"
              ~args:
                [
                  ("request", Tc_obs.Trace.String rid);
                  ("key", Tc_obs.Trace.String k);
                ];
            Some (Printf.sprintf "%s: %s" rid (error_to_string e)))
      (List.map2 (fun (k, r) (_, _, _, rid) -> (k, r, rid)) generated distinct)
  in
  (* Dispatch: [Audit.dispatch] races the engines on the plan's
     representative problem (for a dedup'd request that is the first
     requester's), so duplicate requests agree.  Each request's dispatch
     runs inside its request scope: predicted time, chosen strategy and
     (from the simulated execution) actual time land as span attributes,
     and one flight-recorder entry is appended. *)
  (* Requests with positive dispatch regret, counted as the (sequential)
     dispatch loop below walks the batch in request order. *)
  let regrets = ref 0 in
  let responses =
    List.map
      (function
        | Error resp -> resp
        | Ok (req, ctx, problem, k) ->
            let rid = request_label req.Request.id in
            let t0 = Sys.time () in
            (* [result_r] carries the public outcome with the request's
               dispatch regret (not part of the report_doc surface — it
               lands on the span, the flight entry and the audit
               ledger). *)
            let result_r =
              Tc_obs.Trace.with_request ~id:rid
                ~attrs:
                  [
                    ("key", Tc_obs.Trace.String k);
                    ("expr", Tc_obs.Trace.String req.Request.expr);
                  ]
                "serve.request"
              @@ fun () ->
              match Hashtbl.find_opt plans k with
              | None ->
                  Tc_obs.Trace.add_args
                    [ ("outcome", Tc_obs.Trace.String "error") ];
                  Error (Crashed "internal: generation result missing")
              | Some (Error e) ->
                  Tc_obs.Trace.add_args
                    [ ("outcome", Tc_obs.Trace.String "error") ];
                  Error e
              | Some (Ok r) ->
                  let plan = r.Cogent.Driver.plan in
                  let d = Audit.dispatch ctx plan in
                  let race = d.Audit.race in
                  let outcome =
                    {
                      key = k;
                      cached = Hashtbl.mem warm k;
                      degraded = r.Cogent.Driver.degraded;
                      engine = d.Audit.engine;
                      schema = d.Audit.schema;
                      pipelined =
                        Option.map
                          (fun (sc, s) -> (sc, s.Tc_sim.Simkernel.time_s))
                          race.Tc_sim.Simkernel.pipelined;
                      cogent_time_s =
                        race.Tc_sim.Simkernel.classic.Tc_sim.Simkernel.time_s;
                      ttgt_time_s = d.Audit.ttgt_s;
                      predicted_s = d.Audit.predicted_s;
                      gflops = d.Audit.gflops;
                    }
                  in
                  (* Dispatch regret: the decision above compared the
                     engines on the representative problem; the request
                     runs at its own extents.  Pure model output computed
                     sequentially in request order — the audit metrics
                     below are part of the CI replay gate's deterministic
                     subset. *)
                  let regret = Audit.regret ~ctx ~own:problem d plan in
                  let _, _, regret_s, _ = regret in
                  Audit.record_regret regret_s;
                  if regret_s > 0.0 then incr regrets;
                  (match session.audit with
                  | None -> ()
                  | Some c ->
                      let s =
                        Audit.sample ~suite:"serve" ~request:rid ~key:k
                          ?measured:(Hashtbl.find_opt measures k)
                          ~degraded:r.Cogent.Driver.degraded ~dispatch:d
                          ~regret plan
                      in
                      Audit.add c s;
                      Audit.record_sample s;
                      Tc_obs.Trace.add_args
                        [
                          ( "model_tx_rel_err",
                            Tc_obs.Trace.Float (Audit.tx_rel_err s) );
                        ]);
                  (* The served lane's simulation is this repo's
                     stand-in for running the kernel, so the span's actual
                     time equals its predicted time. *)
                  let predicted_s = outcome.predicted_s in
                  Tc_obs.Trace.add_args
                    [
                      ("predicted_ms", Tc_obs.Trace.Float (predicted_s *. 1e3));
                      ("actual_ms", Tc_obs.Trace.Float (predicted_s *. 1e3));
                      ("regret_ms", Tc_obs.Trace.Float (regret_s *. 1e3));
                      ( "strategy",
                        Tc_obs.Trace.String (outcome_strategy outcome) );
                      ("outcome", Tc_obs.Trace.String "ok");
                      ("cached", Tc_obs.Trace.Bool outcome.cached);
                      ("degraded", Tc_obs.Trace.Bool outcome.degraded);
                      ("gflops", Tc_obs.Trace.Float outcome.gflops);
                    ];
                  Tc_obs.Metrics.observe (predicted_hist ()) predicted_s;
                  Ok (outcome, regret_s)
            in
            let result = Result.map fst result_r in
            (match result_r with
            | Ok (o, regret_s) ->
                Tc_obs.Flightrec.record ~key:k ~expr:req.Request.expr
                  ~strategy:(outcome_strategy o)
                  ~timings:
                    [
                      ("predicted_s", o.predicted_s);
                      ("cogent_s", o.cogent_time_s);
                      ("ttgt_s", o.ttgt_time_s);
                      ("regret_s", regret_s);
                      ("wall_s", Float.max 0.0 (Sys.time () -. t0));
                    ]
                  rid
            | Error e ->
                Tc_obs.Flightrec.record ~key:k ~expr:req.Request.expr
                  ~error:(error_to_string e) rid);
            Tc_obs.Metrics.observe (request_wall_hist ())
              (Float.max 0.0 (Sys.time () -. t0));
            {
              id = req.Request.id;
              expr = req.Request.expr;
              arch = req.Request.arch.Arch.name;
              precision = Precision.to_string req.Request.precision;
              result;
            })
      resolved
  in
  let after = Cogent.Cache.stats session.cache in
  let count p = List.length (List.filter p responses) in
  let count_ok p =
    count (fun r -> match r.result with Ok o -> p o | Error _ -> false)
  in
  let ok = count (fun r -> Result.is_ok r.result) in
  (* A fresh successful search serves its first requester; everyone else —
     dups, warm-store keys, repeat batches — is a hit.  [generations]
     counts searches actually run, including failed ones (errors are never
     cached, so a doomed request retries every batch). *)
  let fresh_ok =
    List.length
      (List.filter
         (fun (k, r) -> Result.is_ok r && not (Hashtbl.mem warm k))
         generated)
  in
  let summary =
    {
      requests = List.length items;
      distinct = List.length distinct;
      loaded = session.loaded;
      generations = after.Cogent.Cache.misses - before.Cogent.Cache.misses;
      hits = ok - fresh_ok;
      degraded = count_ok (fun o -> o.degraded);
      errors = count (fun r -> Result.is_error r.result);
      to_cogent = count_ok (fun o -> o.engine = Cogent_kernel);
      to_pipelined =
        count_ok (fun o ->
            o.engine = Cogent_kernel && Schema.pipelined o.schema);
      to_ttgt = count_ok (fun o -> o.engine = Ttgt_pipeline);
      regrets = !regrets;
    }
  in
  Tc_obs.Metrics.incr ~by:summary.requests
    (Tc_obs.Metrics.counter "cogent.serve.requests");
  Tc_obs.Metrics.incr ~by:summary.errors
    (Tc_obs.Metrics.counter "cogent.serve.errors");
  Tc_obs.Metrics.incr ~by:summary.degraded
    (Tc_obs.Metrics.counter "cogent.serve.degraded");
  Tc_obs.Metrics.incr ~by:summary.to_cogent
    (Tc_obs.Metrics.counter "cogent.serve.dispatch.cogent");
  Tc_obs.Metrics.incr ~by:summary.to_ttgt
    (Tc_obs.Metrics.counter "cogent.serve.dispatch.ttgt");
  Tc_obs.Metrics.set
    (Tc_obs.Metrics.gauge "cogent.serve.hit_ratio")
    (if ok > 0 then float_of_int summary.hits /. float_of_int ok else 0.0);
  { responses; summary; notices }

let report_doc ~wall_s report =
  {
    Tc_profile.Benchrep.target = "serve";
    wall_s;
    jobs = Tc_par.Pool.default_jobs ();
    entries =
      List.map
        (fun resp ->
          {
            Tc_profile.Benchrep.name = request_label resp.id;
            expr = (if resp.expr = "" then "-" else resp.expr);
            arch = resp.arch;
            precision = resp.precision;
            strategies =
              (match resp.result with
              | Ok o ->
                  [
                    {
                      Tc_profile.Benchrep.strategy = "cogent";
                      metrics = [ ("time_s", o.cogent_time_s) ];
                      config = None;
                    };
                  ]
                  (* Only present when a pipelined variant was feasible,
                     so classic-only workloads keep their exact report. *)
                  @ (match o.pipelined with
                    | None -> []
                    | Some (sc, t) ->
                        [
                          {
                            Tc_profile.Benchrep.strategy = "cogent-pipelined";
                            metrics = [ ("time_s", t) ];
                            config = Some (Schema.to_string sc);
                          };
                        ])
                  @ [
                      {
                        Tc_profile.Benchrep.strategy = "ttgt";
                        metrics = [ ("time_s", o.ttgt_time_s) ];
                        config = None;
                      };
                      {
                        Tc_profile.Benchrep.strategy = "dispatch";
                        metrics =
                          [
                            ("gflops", o.gflops);
                            ("degraded", if o.degraded then 1.0 else 0.0);
                          ];
                        config = Some (outcome_strategy o);
                      };
                    ]
              | Error e ->
                  [
                    {
                      Tc_profile.Benchrep.strategy = "error";
                      metrics = [];
                      config = Some (error_to_string e);
                    };
                  ]);
          })
        report.responses;
  }

let render_summary s =
  Printf.sprintf
    "requests          %d\n\
     distinct plans    %d\n\
     store entries     %d loaded\n\
     plan generations  %d\n\
     cache hits        %d\n\
     dispatch          cogent %d (%d pipelined), ttgt %d\n\
     dispatch regret   %d request(s)\n\
     degraded          %d\n\
     errors            %d\n"
    s.requests s.distinct s.loaded s.generations s.hits s.to_cogent
    s.to_pipelined s.to_ttgt s.regrets s.degraded s.errors
