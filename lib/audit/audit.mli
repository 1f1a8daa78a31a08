(** The serving dispatch decision and the cost-model accuracy
    observatory.

    {!dispatch} is the one place that decides which engine serves a plan.
    The serving layer acts on it, and {!regret} and {!sample} read the
    same record, so the ledger holds exactly the decision serve made.

    This module records one structured {!sample} per executed plan — the
    Algorithm-3 cost and the analytical and measured transaction counts of
    the plan's {!Tc_profile.Evidence.t}, both engines' predicted times
    on the plan's representative problem {e and} on the request's own
    problem — and aggregates them into per-(suite, arch, precision)
    calibration tables plus a {b dispatch regret} account: requests where
    the losing strategy would have been faster on the request's own
    extents, and by how much.

    Regret can only arise through the plan cache's size-class
    approximation (§IV-B "closest representative"): dispatch compares the
    engines on the representative problem, while the request runs at its
    own extents.  On the representative itself the chosen engine is the
    minimum by construction and regret is identically zero.

    Every input is a deterministic model evaluation, so samples, reports
    and the persisted {!Ledger} are byte-identical at any worker-domain
    count and across cold/warm stores (CI-enforced alongside the serve
    replay gate). *)

type regret = {
  own_cogent_s : float;  (** served schema at the request's extents *)
  own_ttgt_s : float;  (** TTGT prediction at the request's extents *)
  regret_s : float;
      (** [max 0 (chosen - alternative)] on the request's own problem *)
  own_approx : bool;
      (** the cached mapping does not fit the request's extents
          ({!Cogent.Mapping.fits}); own times fell back to the
          representative's (regret 0) *)
}
(** What the dispatch decision would have cost at the request's own
    extents. *)

type sample = {
  suite : string;  (** producer: ["serve"], ["fig4"], ["eq1"], ... *)
  request : string;  (** request id (["req-007"]) or suite entry name *)
  key : string;  (** the {!Cogent.Cache.key} the plan is filed under *)
  expr : string;  (** canonical TCCG form of the contraction *)
  arch : string;
  precision : string;
  strategy : string;  (** {!engine_name} of the {!dispatch}'s engine *)
  pred_cogent_s : float;  (** served COGENT lane, representative problem *)
  pred_ttgt_s : float;  (** TTGT model prediction, representative problem *)
  own : regret;  (** the dispatch priced at the request's own extents *)
  model_cost : float;  (** Algorithm-3 total (the ranking quantity) *)
  model_tx : Cogent.Cost.breakdown;  (** Algorithm-3 per-tensor estimate *)
  exact_tx : Cogent.Cost.breakdown;
      (** boundary-exact analytical counters (no-L2 mode) *)
  measured_tx : Cogent.Cost.breakdown;
      (** {!Cogent.Interp.measure} ground truth *)
}

val tx_total : Cogent.Cost.breakdown -> float

val tx_rel_err : sample -> float
(** Relative error of the Algorithm-3 total against the measured total:
    the magnitude of {!tx_signed_err}. *)

val tx_signed_err : sample -> float
(** {!Tc_profile.Profile.signed_error} of the Algorithm-3 total against
    the measured total: positive = the model over-charges. *)

val sim_mismatch : sample -> bool
(** True iff the analytical exact counters diverge from the measured
    counters on any tensor — a model bug (the simulator contract is exact
    agreement in no-L2 mode). *)

(** {1 Dispatch} *)

type engine = Cogent_kernel | Ttgt_pipeline

val engine_name : engine -> string
(** ["cogent"] / ["ttgt"]. *)

type dispatch = {
  engine : engine;  (** lower predicted time wins; COGENT wins ties *)
  race : Tc_sim.Simkernel.race;  (** every COGENT lane, as raced *)
  schema : Tc_gpu.Schema.t;
      (** the served COGENT schema: the race's chosen lane, reported even
          when TTGT won *)
  cogent_s : float;  (** the chosen lane's predicted time *)
  ttgt_s : float;  (** the TTGT model's predicted time *)
  predicted_s : float;  (** the served engine's predicted time *)
  gflops : float;  (** the served engine's predicted throughput *)
}

val dispatch : Cogent.Ctx.t -> Cogent.Plan.t -> dispatch
(** [dispatch ctx plan] runs {!Tc_sim.Simkernel.race} and
    {!Tc_ttgt.Ttgt.run_ctx} once each on [plan]'s representative problem
    and picks the engine: the only COGENT-vs-TTGT comparison in the
    system. *)

val regret :
  ctx:Cogent.Ctx.t -> own:Tc_expr.Problem.t -> dispatch -> Cogent.Plan.t ->
  regret
(** [regret ~ctx ~own d plan] evaluates both engines at the request's own
    extents.  The chosen side is [d]'s engine and the own-extent kernel is
    priced by {!Tc_sim.Simkernel.simulate} under [d]'s schema (no plan, so
    no model cost, is built), so regret is 0 when [own] is the
    representative problem.  [d] must be [dispatch ctx plan]. *)

val dispatch_regret :
  ctx:Cogent.Ctx.t -> own:Tc_expr.Problem.t -> Cogent.Plan.t -> regret
(** [dispatch_regret ~ctx ~own plan] is
    [regret ~ctx ~own (dispatch ctx plan) plan]. *)

val sample :
  suite:string ->
  request:string ->
  key:string ->
  dispatch:dispatch ->
  regret:regret ->
  Tc_profile.Evidence.t ->
  sample
(** Project one plan's measured {!Tc_profile.Evidence.t} (its transaction
    counts), its dispatch [d] and its {!regret} into a ledger row: nothing
    is predicted or measured here.
    @raise Invalid_argument when the evidence was built without
    [~measure:true]. *)

(** {1 Collecting} *)

type collector
(** An append-only sample sink.  The serving layer appends strictly in
    request order, after the parallel section, so {!samples} is
    deterministic whenever the workload is. *)

val collector : unit -> collector
val add : collector -> sample -> unit
val samples : collector -> sample list
(** In insertion order. *)

val record_regret : float -> unit
(** Bump the global-registry regret instruments
    ([cogent.audit.regret_requests] counter — positive regret only — and
    the [cogent.audit.regret_seconds] histogram).  Call sequentially in
    request order only: the instruments are part of the CI replay gate's
    deterministic metric subset. *)

val record_sample : sample -> unit
(** Bump [cogent.audit.samples] and the [cogent.audit.tx_rel_err] error
    histogram for one collected sample (same ordering rule as
    {!record_regret}). *)

(** {1 Aggregation} *)

val entries : sample list -> Tc_profile.Benchrep.entry list
(** One cogent-bench/1 entry per (suite, arch, precision) group,
    first-appearance order, named [suite/arch/precision].  Three
    strategies per entry:
    - ["calibration"]: [samples], [tx_err_p50]/[_p90]/[_p99] (bucket
      quantiles via {!Tc_obs.Metrics.quantile}), [tx_err_max],
      [tx_err_bias] (mean signed error), [sim_mismatches];
    - ["dispatch"]: [to_cogent], [to_ttgt], [pred_ms_sum] (chosen
      engine's predicted time summed in sample order — the
      calibration-drift tripwire: any {!Tc_sim.Simkernel} constant change
      moves it);
    - ["regret"]: [requests] (samples with positive regret), [rate],
      [total_ms], [max_ms], [p99_ms]. *)

val doc : sample list -> Tc_profile.Benchrep.doc
(** {!entries} wrapped as a cogent-bench/1 document (target ["audit"]).
    [wall_s] and [jobs] are 0 so [cogent audit --json] output is a pure
    function of the ledger — byte-identical across job counts and
    cold/warm replays. *)

val tolerances : Tc_profile.Benchrep.tolerance list
(** The drift gate's per-metric allowances: counts and [pred_ms_sum] are
    {!Tc_profile.Benchrep.Exact}; error quantiles and regret magnitudes
    are [Lower_better] with a 5% allowance; [requests]/[rate] are
    [Lower_better] with zero allowance (any new regret fails CI). *)

val render : sample list -> string
(** Human-readable calibration report (the golden-locked surface):
    per-group dispatch mix, error quantiles, simulator agreement, regret
    account, then one line per sample. *)
