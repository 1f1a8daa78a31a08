(** The batched contraction-serving engine.

    A session holds one entry per plan key: the plan, the store row it
    was decoded from, its dispatch decision and, when audited, its
    measured evidence.  The entries are loaded from an optional on-disk
    {!Planstore} at open and saved back at close — a warm restart
    re-generates nothing.  {!run} takes a parsed workload, dedups it by
    {!Cogent.Cache.key}, fans the {e distinct} plan searches of keys with
    no entry out on {!Tc_par.Pool} (first-appearance order, so results
    are bit-identical at any job count), then serves every request on the
    engine that {!Tc_audit.Audit.dispatch} picks for its key's plan — the
    schema race's chosen COGENT lane (classic, or a pipelined variant on
    devices with async copies) against the TTGT pipeline on the same
    representative problem.  Serve makes no comparison of its own: the
    outcome, the dispatch regret and the audit sample all read that one
    decision.

    A hit pays only for what depends on its own extents (regret, the
    flight entry, the metrics).  The session computes the dispatch once
    per plan key and analyses each expression string once
    ({!Tc_expr.Problem.analyse}), binding each request's extents with
    {!Tc_expr.Problem.of_info}; both memos are pure functions of their
    key, so answers are the ones a fresh session gives.

    A failed search or malformed request yields a typed {!error} for that
    request only — the batch always completes. *)

type engine = Tc_audit.Audit.engine = Cogent_kernel | Ttgt_pipeline

type error =
  | Bad_request of string  (** malformed JSONL line, expression or sizes *)
  | Generation of Cogent.Driver.error  (** the plan search failed *)
  | Crashed of string  (** the generator raised; the batch continued *)

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

type outcome = {
  key : string;  (** the {!Cogent.Cache.key} the request resolved to *)
  cached : bool;
      (** the key had an entry when the batch started (a warm store, or
          an earlier batch on this session) *)
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
  hits : int;
      (** successful requests other than the first requester of each key
          this batch searched *)
  errors : int;
  to_cogent : int;
  to_pipelined : int;
      (** of [to_cogent], requests dispatched to a pipelined schema *)
  to_ttgt : int;
  regrets : int;
      (** requests with positive dispatch regret: the losing engine would
          have been faster at the request's own extents (only possible
          through the plan key's size-class approximation; see
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
(** Not safe to share between domains: call {!run} on a session from one
    domain at a time (the plan searches inside it fan out on the pool). *)

val open_session :
  ?store:string ->
  ?audit:Tc_audit.Audit.collector ->
  Cogent.Ctx.t ->
  (session, string) result
(** [store] names a {!Planstore} directory; each of its keys becomes an
    entry (a duplicated key keeps its first row; [summary.loaded] counts
    every row read).  [audit] attaches an accuracy-ledger collector:
    {!run} then also builds each plan key's measured
    {!Tc_profile.Evidence.t} once per session (inside the fan-out of the
    first batch that serves the key, loaded keys included) and appends
    one {!Tc_audit.Audit.sample} per successful request, in request
    order.  [Error] on an unreadable or wrong-schema store. *)

val close_session : session -> unit
(** Save every entry's plan to the store, sorted by key (no-op without
    one): a row loaded at open in the current format is copied from the
    file as it was read while its digest still matches, and every other
    entry is encoded ({!Planstore.save}). *)

val run : session -> (Request.t, int * string) result list -> report
(** Serve one workload (the shape {!Request.load_file} returns); parse
    failures become [Bad_request] responses.  Responses are in request
    order.  Safe to call repeatedly on one session; the entries carry
    over.  Only keys with no entry are searched, with {!Cogent.Driver.run}
    directly (the keys are distinct, so no two searches share a key);
    when audited, keys with no evidence are also measured.  A batch whose keys all have entries (and evidence) runs no
    pool task.

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
    the "wall" naming convention; [generate_wall_seconds] observes each
    search, and nothing on a batch that searches nothing); each request also appends one
    {!Tc_obs.Flightrec} entry to the global flight recorder. *)

val report_doc : wall_s:float -> report -> Tc_profile.Benchrep.doc
(** The [--json] report: a cogent-bench/1 document (target ["serve"]) with
    one entry per request.  Only batch-invariant data is included —
    predicted times, dispatch decision, typed errors — so
    cold-store and warm-store runs at any job count produce documents
    equal under {!Tc_profile.Benchrep.equal_modulo_wall}. *)

val render_summary : summary -> string
(** Human-readable session counters (the part deliberately {e not} in
    {!report_doc}: hits and generations differ cold vs warm). *)
