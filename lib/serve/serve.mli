(** The batched contraction-serving engine.

    A session owns a plan cache, optionally backed by an on-disk
    {!Planstore} (loaded at open, flushed at close — a warm restart
    re-generates nothing).  {!run} takes a parsed workload, dedups it by
    {!Cogent.Cache.key}, fans the {e distinct} plan searches out on
    {!Tc_par.Pool} (first-appearance order, so results are bit-identical
    at any job count), then serves every request on the engine that
    {!Tc_audit.Audit.dispatch} picks for its cached plan — the schema
    race's chosen COGENT lane (classic, or a pipelined variant on devices
    with async copies) against the TTGT pipeline on the same
    representative problem.  Serve makes no comparison of its own: the
    outcome, the dispatch regret and the audit sample all read that one
    decision.

    Degradation ladder: a {!Cogent.Ctx.t.budget} falls generation back to
    the heuristic top-of-enumeration plan (flagged per request); a failed
    search or malformed request yields a typed {!error} for that request
    only — the batch always completes. *)

type engine = Tc_audit.Audit.engine = Cogent_kernel | Ttgt_pipeline

val engine_name : engine -> string
(** ["cogent"] / ["ttgt"]. *)

type error =
  | Bad_request of string  (** malformed JSONL line, expression or sizes *)
  | Generation of Cogent.Driver.error  (** the plan search failed *)
  | Crashed of string  (** the generator raised; the batch continued *)

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

type outcome = {
  key : string;  (** the {!Cogent.Cache.key} the request resolved to *)
  cached : bool;
      (** plan was already cached when the batch started (a warm store, or
          an earlier batch on this session) *)
  degraded : bool;  (** plan came from a budget-truncated search *)
  engine : engine;  (** {!Tc_audit.Audit.dispatch}'s decision *)
  schema : Tc_gpu.Schema.t;
      (** kernel schema of the winning COGENT variant (the schema race's
          chosen lane, reported even when the TTGT pipeline won) *)
  pipelined : (Tc_gpu.Schema.t * float) option;
      (** best feasible pipelined variant and its predicted time — [None]
          on devices without async copies *)
  cogent_time_s : float;
      (** simulator prediction for the classic COGENT kernel *)
  ttgt_time_s : float;  (** model prediction for the TTGT pipeline *)
  predicted_s : float;
      (** predicted time of the served engine (the winning lane when a
          pipelined kernel won) — the value the request's span and
          flight-recorder entry carry *)
  gflops : float;  (** predicted throughput of the served engine *)
}

val outcome_strategy : outcome -> string
(** Dispatch label: ["cogent"], ["ttgt"], or ["cogent-<schema>"] when a
    pipelined COGENT kernel won. *)

type response = {
  id : int;
  expr : string;  (** [""] when the line never parsed *)
  arch : string;
  precision : string;
  result : (outcome, error) result;
}

type summary = {
  requests : int;
  distinct : int;  (** distinct plan keys among well-formed requests *)
  loaded : int;  (** entries loaded from the store at session open *)
  generations : int;  (** plan searches actually run (0 on a warm store) *)
  hits : int;  (** requests served from an already-present plan *)
  degraded : int;
  errors : int;
  to_cogent : int;
  to_pipelined : int;
      (** of [to_cogent], requests dispatched to a pipelined schema *)
  to_ttgt : int;
  regrets : int;
      (** requests with positive dispatch regret: the losing engine would
          have been faster at the request's own extents (only possible
          through the cache's size-class approximation; see
          {!Tc_audit.Audit}) *)
}

type report = {
  responses : response list;
  summary : summary;
  notices : string list;
      (** stderr-destined lines (one per failed plan search), assembled
          after the parallel section so the caller can print them without
          interleaving with pool output (DESIGN.md, "Parallel runtime") *)
}

type session

val open_session :
  ?store:string ->
  ?audit:Tc_audit.Audit.collector ->
  ?flight_capacity:int ->
  Cogent.Ctx.t ->
  (session, string) result
(** [store] names a {!Planstore} directory; its entries pre-populate the
    cache.  [audit] attaches an accuracy-ledger collector: {!run} then
    also measures every distinct plan's ground-truth counters (inside the
    generation fan-out) and appends one {!Tc_audit.Audit.sample} per
    successful request, in request order.  [flight_capacity] resizes the
    global {!Tc_obs.Flightrec} ring (default stays 128).  [Error] on an
    unreadable or wrong-schema store. *)

val close_session : session -> unit
(** Flush every cached plan back to the store (no-op without one): the
    rows loaded at open are copied from the file as they were read, and
    only plans this session generated are encoded ({!Planstore.save}). *)

val run : session -> (Request.t, int * string) result list -> report
(** Serve one workload (the shape {!Request.load_file} returns); parse
    failures become [Bad_request] responses.  Responses are in request
    order.  Safe to call repeatedly on one session; the cache carries
    over.

    Telemetry: every request is served inside a
    {!Tc_obs.Trace.with_request} scope named [req-NNN], so its parse,
    plan search (wherever the pool runs it), dispatch and simulated
    execution form one connected span tree in the Chrome export, with
    [predicted_ms], [actual_ms], [regret_ms] and [strategy] recorded as
    span attributes (plus [model_tx_rel_err] when an audit collector is
    attached); each dispatched request's flight-recorder entry carries a
    [regret_s] timing, and the deterministic [cogent.audit.*] instruments
    (regret counter/histogram, sample counter, model-error histogram)
    accumulate in request order.  Per-request latencies land in the
    [cogent.serve.predicted_seconds] histogram (deterministic — model
    output observed in request order) and the [cogent.serve.*_wall_*]
    histograms (wall clock, excluded from the CI deterministic subset by
    the "wall" naming convention); each request also appends one
    {!Tc_obs.Flightrec} entry to the global flight recorder. *)

val report_doc : wall_s:float -> report -> Tc_profile.Benchrep.doc
(** The [--json] report: a cogent-bench/1 document (target ["serve"]) with
    one entry per request.  Only batch-invariant data is included —
    predicted times, dispatch decision, degraded flag, typed errors — so
    cold-store and warm-store runs at any job count produce documents
    equal under {!Tc_profile.Benchrep.equal_modulo_wall}. *)

val render_summary : summary -> string
(** Human-readable session counters (the part deliberately {e not} in
    {!report_doc}: hits and generations differ cold vs warm). *)
