open Tc_gpu
module Audit = Tc_audit.Audit

type engine = Audit.engine = Cogent_kernel | Ttgt_pipeline

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
  | Ttgt_pipeline -> Audit.engine_name Ttgt_pipeline
  | Cogent_kernel ->
      if Schema.pipelined o.schema then
        Audit.engine_name Cogent_kernel ^ "-" ^ Schema.to_string o.schema
      else Audit.engine_name Cogent_kernel

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

(* One plan key's state in a session, written only by the sequential
   parts of [open_session] and [run].  [plan] is never replaced: a key
   with an entry is not searched again, and a duplicated store key keeps
   its first row.  [row] is the current-format store row [plan] was
   decoded from, copied back on save while its digest matches ([None]:
   encode).  [dispatch] memoizes [Audit.dispatch ctx plan], which reads
   the plan and the context's device and precision; the key names those
   (and any forced schema) and every other context field is the
   session's, so it is what a fresh call returns.  [evidence], a pure
   function of [plan], is measured once per key in an audited session. *)
type entry = {
  plan : Cogent.Driver.t;
  row : Tc_obs.Jsonl.span option;
  mutable dispatch : Audit.dispatch option;
  mutable evidence : Tc_profile.Evidence.t option;
}

(* Per-session work a request does not repeat: the analysis of an
   expression string (extents are bound per request with
   [Problem.of_info]) and every plan key's entry. *)
type session = {
  ctx : Cogent.Ctx.t;
  store : string option;
  loaded : int;
  audit : Audit.collector option;
  infos : (string, Tc_expr.Classify.info) Hashtbl.t;
  entries : (string, entry) Hashtbl.t;
}

let open_session ?store ?audit ctx =
  Cogent.Ctx.install_jobs ctx;
  let session rows =
    let entries = Hashtbl.create 64 in
    List.iter
      (fun (k, plan, row) ->
        if not (Hashtbl.mem entries k) then
          Hashtbl.add entries k
            { plan; row; dispatch = None; evidence = None })
      rows;
    {
      ctx;
      store;
      loaded = List.length rows;
      audit;
      infos = Hashtbl.create 64;
      entries;
    }
  in
  match store with
  | None -> Ok (session [])
  | Some dir -> Result.map session (Planstore.read ~dir)

let close_session s =
  Option.iter
    (fun dir ->
      Hashtbl.fold (fun k e rows -> (k, e.plan, e.row) :: rows) s.entries []
      |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
      |> Planstore.save ~dir)
    s.store

(* Request ids as they appear everywhere observable: span/flight-recorder
   attribution and the per-request entries of the JSON report. *)
let request_label id = Printf.sprintf "req-%03d" id

(* [Request.problem] with the analysis memoized per expression string.
   Only successes are kept, so a stream of malformed expressions cannot
   grow the table, and every error is the one [Request.problem] gives. *)
let problem session (req : Request.t) =
  let info =
    match Hashtbl.find_opt session.infos req.Request.expr with
    | Some info -> Ok info
    | None ->
        let r = Tc_expr.Problem.analyse req.Request.expr in
        Result.iter (Hashtbl.add session.infos req.Request.expr) r;
        r
  in
  Result.bind info (fun info -> Tc_expr.Problem.of_info info req.Request.sizes)

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
                (fun () -> problem session req)
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
  (* The fan-out, over distinct keys in first-appearance order: every key
     with no entry is searched and, when audited, every key with no
     evidence is measured.  The order is a pure function of the workload,
     so [Pool.map] keeps the batch bit-identical at any job count.  The
     keys are distinct, so no two items share work.  Each item carries
     its first requester's id, so its whole subtree — prune, cost
     ranking, refinement, the schedule replay, wherever the pool runs
     it — stays attributed to that request in the trace. *)
  let audited = Option.is_some session.audit in
  let seen = Hashtbl.create 16 in
  let todo =
    List.filter_map
      (function
        | Ok (req, ctx, problem, k) when not (Hashtbl.mem seen k) -> (
            Hashtbl.add seen k ();
            let item held =
              Some (k, ctx, problem, request_label req.Request.id, held)
            in
            match Hashtbl.find_opt session.entries k with
            | None -> item None
            | Some e when audited && Option.is_none e.evidence ->
                item (Some e.plan)
            | Some _ -> None)
        | _ -> None)
      resolved
  in
  let worked =
    Tc_par.Pool.map
      (fun (k, ctx, problem, rid, held) ->
        Tc_obs.Trace.with_request ~id:rid
          ~attrs:[ ("key", Tc_obs.Trace.String k) ]
          (if Option.is_none held then "serve.generate" else "serve.measure")
        @@ fun () ->
        let r =
          match held with
          | Some d -> Ok d
          | None ->
              let t0 = Tc_obs.Clock.now () in
              let r =
                match Cogent.Driver.run ctx problem with
                | r -> Result.map_error (fun e -> Generation e) r
                | exception e -> Error (Crashed (Printexc.to_string e))
              in
              Tc_obs.Metrics.observe (generate_wall_hist ())
                (Tc_obs.Clock.now () -. t0);
              r
        in
        ( r,
          match r with
          | Ok d when audited ->
              Some
                (Tc_obs.Trace.with_span "audit.measure" (fun () ->
                     Tc_profile.Evidence.make ~measure:true
                       d.Cogent.Driver.plan))
          | _ -> None ))
      todo
  in
  (* This batch's searches and their outcomes.  A failed search leaves no
     entry: errors are never kept, so a doomed request retries every
     batch. *)
  let searched = Hashtbl.create 16 in
  List.iter2
    (fun (k, _, _, _, held) (r, evidence) ->
      if Option.is_none held then Hashtbl.add searched k r;
      match (Hashtbl.find_opt session.entries k, r) with
      | Some e, _ -> e.evidence <- evidence
      | None, Ok plan ->
          Hashtbl.add session.entries k
            { plan; row = None; dispatch = None; evidence }
      | None, Error _ -> ())
    todo worked;
  (* Failed searches become stderr-destined notices — assembled here,
     strictly after the parallel section, and printed by the caller (the
     DESIGN.md parallel-runtime rule: print only after the fan-out), so
     the summary can never interleave with pool worker output. *)
  let notices =
    List.filter_map
      (fun ((k, _, _, rid, _), (r, _)) ->
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
      (List.combine todo worked)
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
            let t0 = Tc_obs.Clock.now () in
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
              match Hashtbl.find_opt searched k with
              | Some (Error e) ->
                  Tc_obs.Trace.add_args
                    [ ("outcome", Tc_obs.Trace.String "error") ];
                  Error e
              | search ->
                  let e = Hashtbl.find session.entries k in
                  let plan = e.plan.Cogent.Driver.plan in
                  let d =
                    match e.dispatch with
                    | Some d -> d
                    | None ->
                        let d = Audit.dispatch ctx plan in
                        e.dispatch <- Some d;
                        d
                  in
                  let race = d.Audit.race in
                  let outcome =
                    {
                      key = k;
                      cached = Option.is_none search;
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
                  let regret_s = regret.Audit.regret_s in
                  Audit.record_regret regret_s;
                  if regret_s > 0.0 then incr regrets;
                  (match session.audit with
                  | None -> ()
                  | Some c ->
                      let s =
                        Audit.sample ~suite:"serve" ~request:rid ~key:k
                          ~dispatch:d ~regret (Option.get e.evidence)
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
                      ("gflops", Tc_obs.Trace.Float outcome.gflops);
                    ];
                  Tc_obs.Metrics.observe (predicted_hist ()) predicted_s;
                  Ok (outcome, regret_s)
            in
            let result = Result.map fst result_r in
            let wall_s = Tc_obs.Clock.now () -. t0 in
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
                      ("wall_s", wall_s);
                    ]
                  rid
            | Error e ->
                Tc_obs.Flightrec.record ~key:k ~expr:req.Request.expr
                  ~error:(error_to_string e) rid);
            Tc_obs.Metrics.observe (request_wall_hist ()) wall_s;
            {
              id = req.Request.id;
              expr = req.Request.expr;
              arch = req.Request.arch.Arch.name;
              precision = Precision.to_string req.Request.precision;
              result;
            })
      resolved
  in
  let count p = List.length (List.filter p responses) in
  let count_ok p =
    count (fun r -> match r.result with Ok o -> p o | Error _ -> false)
  in
  let ok = count (fun r -> Result.is_ok r.result) in
  (* A fresh successful search serves its first requester; everyone else —
     dups, warm-store keys, repeat batches — is a hit.  [generations]
     counts searches actually run, including failed ones. *)
  let fresh_ok =
    Hashtbl.fold (fun _ r n -> if Result.is_ok r then n + 1 else n) searched 0
  in
  let summary =
    {
      requests = List.length items;
      distinct = Hashtbl.length seen;
      loaded = session.loaded;
      generations = Hashtbl.length searched;
      hits = ok - fresh_ok;
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
                        metrics = [ ("gflops", o.gflops) ];
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
     errors            %d\n"
    s.requests s.distinct s.loaded s.generations s.hits s.to_cogent
    s.to_pipelined s.to_ttgt s.regrets s.errors
