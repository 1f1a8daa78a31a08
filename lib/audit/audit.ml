open Tc_gpu
open Tc_expr
module Metrics = Tc_obs.Metrics
module Benchrep = Tc_profile.Benchrep

type regret = {
  own_cogent_s : float;
  own_ttgt_s : float;
  regret_s : float;
  own_approx : bool;
}

type sample = {
  suite : string;
  request : string;
  key : string;
  expr : string;
  arch : string;
  precision : string;
  strategy : string;
  pred_cogent_s : float;
  pred_ttgt_s : float;
  own : regret;
  model_cost : float;
  model_tx : Cogent.Cost.breakdown;
  exact_tx : Cogent.Cost.breakdown;
  measured_tx : Cogent.Cost.breakdown;
}

let tx_total (t : Cogent.Cost.breakdown) = t.lhs +. t.rhs +. t.out

let tx_signed_err s =
  Tc_profile.Profile.signed_error ~measured:(tx_total s.measured_tx)
    (tx_total s.model_tx)

let tx_rel_err s = Float.abs (tx_signed_err s)
let sim_mismatch s = s.exact_tx <> s.measured_tx

let pred_chosen_s s =
  if String.equal s.strategy "cogent" then s.pred_cogent_s else s.pred_ttgt_s

(* ---- the dispatch decision ---- *)

type engine = Cogent_kernel | Ttgt_pipeline

let engine_name = function Cogent_kernel -> "cogent" | Ttgt_pipeline -> "ttgt"

type dispatch = {
  engine : engine;
  race : Tc_sim.Simkernel.race;
  schema : Schema.t;
  cogent_s : float;
  ttgt_s : float;
  predicted_s : float;
  gflops : float;
}

let dispatch ctx (plan : Cogent.Plan.t) =
  let race =
    Tc_obs.Trace.with_span "dispatch.race" (fun () ->
        Tc_sim.Simkernel.race plan)
  in
  let tt =
    Tc_obs.Trace.with_span "dispatch.ttgt" (fun () ->
        Tc_ttgt.Ttgt.run_ctx ctx plan.Cogent.Plan.problem)
  in
  let schema, lane = race.Tc_sim.Simkernel.chosen in
  let cogent_s = lane.Tc_sim.Simkernel.time_s in
  let ttgt_s = tt.Tc_ttgt.Ttgt.time_s in
  (* The winning lane's simulation is also the chosen kernel's simulated
     execution, so its gflops is the served throughput. *)
  let engine, predicted_s, gflops =
    if cogent_s <= ttgt_s then
      (Cogent_kernel, cogent_s, lane.Tc_sim.Simkernel.gflops)
    else (Ttgt_pipeline, ttgt_s, tt.Tc_ttgt.Ttgt.gflops)
  in
  { engine; race; schema; cogent_s; ttgt_s; predicted_s; gflops }

(* ---- sampling ---- *)

let regret ~ctx ~own d (plan : Cogent.Plan.t) =
  let mapping = plan.Cogent.Plan.mapping in
  if Cogent.Mapping.fits own mapping then begin
    (* The own-extent kernel runs under the served schema, which the race
       found feasible: feasibility depends only on mapping, arch and
       precision, which are unchanged. *)
    let oc =
      (Tc_sim.Simkernel.simulate ~arch:plan.Cogent.Plan.arch
         ~precision:plan.Cogent.Plan.precision ~schema:d.schema own mapping)
        .Tc_sim.Simkernel.time_s
    in
    let ot = (Tc_ttgt.Ttgt.run_ctx ctx own).Tc_ttgt.Ttgt.time_s in
    let regret_s =
      match d.engine with
      | Cogent_kernel -> Float.max 0.0 (oc -. ot)
      | Ttgt_pipeline -> Float.max 0.0 (ot -. oc)
    in
    { own_cogent_s = oc; own_ttgt_s = ot; regret_s; own_approx = false }
  end
  else
    (* The cached mapping does not fit the request's own extents; fall
       back to the representative's numbers, where the chosen side is the
       minimum and regret is 0 by construction. *)
    {
      own_cogent_s = d.cogent_s;
      own_ttgt_s = d.ttgt_s;
      regret_s = 0.0;
      own_approx = true;
    }

let dispatch_regret ~ctx ~own plan = regret ~ctx ~own (dispatch ctx plan) plan

let sample ~suite ~request ~key ~dispatch:d ~regret
    (e : Tc_profile.Evidence.t) =
  let plan = e.Tc_profile.Evidence.plan in
  {
    suite;
    request;
    key;
    expr =
      Ast.tccg_string
        (Problem.info plan.Cogent.Plan.problem).Classify.original;
    arch = plan.Cogent.Plan.arch.Arch.name;
    precision = Precision.to_string plan.Cogent.Plan.precision;
    strategy = engine_name d.engine;
    pred_cogent_s = d.cogent_s;
    pred_ttgt_s = d.ttgt_s;
    own = regret;
    model_cost = plan.Cogent.Plan.cost;
    model_tx = Tc_profile.Evidence.model_tx e;
    exact_tx = e.Tc_profile.Evidence.exact;
    measured_tx = Tc_profile.Evidence.measured_tx e;
  }

(* ---- collecting ---- *)

type collector = { mutable rev : sample list }

let collector () = { rev = [] }
let add c s = c.rev <- s :: c.rev
let samples c = List.rev c.rev

(* Finer-than-default buckets so the quantile interpolation resolves the
   few-percent error band the cost model actually lives in (the default
   powers-of-ten ladder would lump everything under 10% into one bucket). *)
let err_buckets =
  [
    0.0001; 0.0002; 0.0005; 0.001; 0.002; 0.005; 0.01; 0.02; 0.05; 0.1; 0.2;
    0.5; 1.0; 2.0;
  ]

let regret_ms_buckets =
  [
    0.0001; 0.0002; 0.0005; 0.001; 0.002; 0.005; 0.01; 0.02; 0.05; 0.1; 0.2;
    0.5; 1.0; 2.0; 5.0; 10.0; 20.0; 50.0; 100.0; 200.0; 500.0; 1000.0;
  ]

(* ---- global-registry instruments (the serving layer's audit hook) ----

   All observed sequentially in request order, never from pool workers,
   so counts AND float sums are bit-identical at any job count — these
   names join the CI replay gate's deterministic metric subset, the
   cogent_audit_ prefix. *)

let regret_counter () = Metrics.counter "cogent.audit.regret_requests"
let regret_hist () = Metrics.histogram "cogent.audit.regret_seconds"
let samples_counter () = Metrics.counter "cogent.audit.samples"

let err_hist () =
  Metrics.histogram ~buckets:err_buckets "cogent.audit.tx_rel_err"

let record_regret regret_s =
  if regret_s > 0.0 then Metrics.incr (regret_counter ());
  Metrics.observe (regret_hist ()) regret_s

let record_sample s =
  Metrics.incr (samples_counter ());
  Metrics.observe (err_hist ()) (tx_rel_err s)

(* ---- aggregation ---- *)

(* The bucket-quantile estimate over a value list, via an isolated
   registry — the same machinery (and therefore the same semantics) as
   the serving layer's Prometheus histograms. *)
let quantile_fn ~buckets values =
  let reg = Metrics.create () in
  let h = Metrics.histogram ~registry:reg ~buckets "q" in
  List.iter (Metrics.observe h) values;
  match Metrics.snapshot reg with
  | [ item ] -> fun q -> Option.value ~default:0.0 (Metrics.quantile item q)
  | _ -> fun _ -> 0.0

let group_keys samples =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun s ->
      let g = (s.suite, s.arch, s.precision) in
      if Hashtbl.mem seen g then None
      else begin
        Hashtbl.add seen g ();
        Some g
      end)
    samples

let count p l = List.length (List.filter p l)

type group_stats = {
  n : int;
  to_cogent : int;
  to_ttgt : int;
  pred_ms_sum : float;
  err_q : float -> float;
  err_max : float;
  err_bias : float;
  mismatches : int;
  regret_requests : int;
  regret_rate : float;
  regret_total_ms : float;
  regret_max_ms : float;
  regret_q : float -> float;
}

let group_stats group =
  let n = List.length group in
  let errs = List.map tx_rel_err group in
  let regrets_ms = List.map (fun s -> s.own.regret_s *. 1e3) group in
  let fsum l = List.fold_left ( +. ) 0.0 l in
  let regret_requests = count (fun s -> s.own.regret_s > 0.0) group in
  {
    n;
    to_cogent = count (fun s -> String.equal s.strategy "cogent") group;
    to_ttgt = count (fun s -> String.equal s.strategy "ttgt") group;
    pred_ms_sum = fsum (List.map (fun s -> pred_chosen_s s *. 1e3) group);
    err_q = quantile_fn ~buckets:err_buckets errs;
    err_max = List.fold_left Float.max 0.0 errs;
    err_bias = fsum (List.map tx_signed_err group) /. float_of_int (max 1 n);
    mismatches = count sim_mismatch group;
    regret_requests;
    regret_rate = float_of_int regret_requests /. float_of_int (max 1 n);
    regret_total_ms = fsum regrets_ms;
    regret_max_ms = List.fold_left Float.max 0.0 regrets_ms;
    regret_q =
      quantile_fn ~buckets:regret_ms_buckets
        (List.filter (fun r -> r > 0.0) regrets_ms);
  }

let entries samples =
  List.map
    (fun ((suite, arch, precision) as g) ->
      let group =
        List.filter (fun s -> (s.suite, s.arch, s.precision) = g) samples
      in
      let st = group_stats group in
      {
        Benchrep.name = Printf.sprintf "%s/%s/%s" suite arch precision;
        expr = "-";
        arch;
        precision;
        strategies =
          [
            {
              Benchrep.strategy = "calibration";
              metrics =
                [
                  ("samples", float_of_int st.n);
                  ("tx_err_p50", st.err_q 0.5);
                  ("tx_err_p90", st.err_q 0.9);
                  ("tx_err_p99", st.err_q 0.99);
                  ("tx_err_max", st.err_max);
                  ("tx_err_bias", st.err_bias);
                  ("sim_mismatches", float_of_int st.mismatches);
                ];
              config = None;
            };
            {
              Benchrep.strategy = "dispatch";
              metrics =
                [
                  ("to_cogent", float_of_int st.to_cogent);
                  ("to_ttgt", float_of_int st.to_ttgt);
                  ("pred_ms_sum", st.pred_ms_sum);
                ];
              config = None;
            };
            {
              Benchrep.strategy = "regret";
              metrics =
                [
                  ("requests", float_of_int st.regret_requests);
                  ("rate", st.regret_rate);
                  ("total_ms", st.regret_total_ms);
                  ("max_ms", st.regret_max_ms);
                  ("p99_ms", st.regret_q 0.99);
                ];
              config = None;
            };
          ];
      })
    (group_keys samples)

let doc samples =
  { Benchrep.target = "audit"; wall_s = 0.0; jobs = 0; entries = entries samples }

let tolerances =
  let t metric rel direction = { Benchrep.metric; rel; direction } in
  [
    t "samples" 0.0 Benchrep.Exact;
    t "sim_mismatches" 0.0 Benchrep.Exact;
    t "tx_err_p50" 0.05 Benchrep.Lower_better;
    t "tx_err_p90" 0.05 Benchrep.Lower_better;
    t "tx_err_p99" 0.05 Benchrep.Lower_better;
    t "tx_err_max" 0.05 Benchrep.Lower_better;
    t "to_cogent" 0.0 Benchrep.Exact;
    t "to_ttgt" 0.0 Benchrep.Exact;
    t "pred_ms_sum" 0.0 Benchrep.Exact;
    t "requests" 0.0 Benchrep.Lower_better;
    t "rate" 0.0 Benchrep.Lower_better;
    t "total_ms" 0.05 Benchrep.Lower_better;
    t "max_ms" 0.05 Benchrep.Lower_better;
    t "p99_ms" 0.05 Benchrep.Lower_better;
  ]

(* ---- rendering ---- *)

let pct f = Printf.sprintf "%.2f%%" (100.0 *. f)

let render samples =
  let buf = Buffer.create 2048 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "cost-model accuracy audit\n";
  p "=========================\n";
  p "samples: %d across %d group(s)\n" (List.length samples)
    (List.length (group_keys samples));
  List.iter
    (fun ((suite, arch, precision) as g) ->
      let group =
        List.filter (fun s -> (s.suite, s.arch, s.precision) = g) samples
      in
      let st = group_stats group in
      p "\ngroup %s (%s, %s): %d sample(s)\n" suite arch precision st.n;
      p "  dispatch        cogent %d, ttgt %d, predicted %.3f ms total\n"
        st.to_cogent st.to_ttgt st.pred_ms_sum;
      p "  model tx error  p50 %s  p90 %s  p99 %s  max %s  bias %+.2f%%\n"
        (pct (st.err_q 0.5)) (pct (st.err_q 0.9)) (pct (st.err_q 0.99))
        (pct st.err_max) (100.0 *. st.err_bias);
      p "  simulator       %d mismatch(es) vs measured counters\n"
        st.mismatches;
      p "  regret          %d request(s), %s rate, total %.3f ms, max %.3f ms\n"
        st.regret_requests (pct st.regret_rate) st.regret_total_ms
        st.regret_max_ms;
      p "  %-10s %-18s %-8s %12s %12s %10s\n" "request" "expr" "strategy"
        "pred ms" "regret ms" "tx err";
      List.iter
        (fun s ->
          p "  %-10s %-18s %-8s %12.3f %12.3f %10s%s\n" s.request s.expr
            s.strategy
            (pred_chosen_s s *. 1e3)
            (s.own.regret_s *. 1e3)
            (pct (tx_rel_err s))
            (if s.own.own_approx then "  [own-approx]" else ""))
        group)
    (group_keys samples);
  Buffer.contents buf
