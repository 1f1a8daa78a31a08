(** Machine-readable bench reports and the regression gate over them.

    One schema, ["cogent-bench/1"], shared by every producer: each bench
    target writes [BENCH_<target>.json] through {!write}, and
    [cogent bench --json] emits a single-entry document of the same
    shape.  A {e document} is a bench target's worth of results; an
    {e entry} is one contraction; a {e strategy} is one generator or
    baseline evaluated on it, carrying a flat metric map (GFLOPS,
    transactions, model cost, ...) and the chosen configuration.

    The {!diff} gate compares a fresh run against a checked-in baseline
    ({!baseline_to_json} bundles several documents into one file) with
    per-metric tolerances: metrics without a tolerance entry are
    informational (the [micro] target's wall-clock numbers never gate),
    everything else fails CI when it drifts past its allowance in the
    wrong direction. *)

type strategy = {
  strategy : string;  (** ["cogent"], ["nwchem"], ["talsh"], ... *)
  metrics : (string * float) list;  (** deterministic order, e.g. gflops *)
  config : string option;  (** chosen mapping, human-readable *)
}

type entry = {
  name : string;  (** e.g. ["tccg-03"] *)
  expr : string;
  arch : string;
  precision : string;
  strategies : strategy list;
}

type doc = {
  target : string;
  wall_s : float;
  jobs : int;  (** worker-domain count the report was produced with *)
  entries : entry list;
}

val filename : string -> string
(** [filename target] is ["BENCH_<target>.json"]. *)

val to_json : doc -> Tc_obs.Json.t
val of_json : Tc_obs.Json.t -> (doc, string) result

val write : path:string -> doc -> unit
(** Pretty-printed JSON; the file round-trips through
    {!Tc_obs.Json.parse} and {!of_json}. *)

val read : path:string -> (doc, string) result
(** Reports written before the parallel runtime lack the [jobs] field;
    it reads back as [1]. *)

val equal_modulo_wall : doc -> doc -> bool
(** Structural equality ignoring [wall_s] and [jobs] — the determinism
    contract: the same target run at different job counts must produce
    identical results. *)

val baseline_to_json : doc list -> Tc_obs.Json.t
(** Bundle documents (one per target) into one baseline file. *)

val baseline_of_json : Tc_obs.Json.t -> (doc list, string) result

(** {1 Regression gating} *)

type direction =
  | Higher_better  (** e.g. GFLOPS: only a drop can regress *)
  | Lower_better  (** e.g. transactions: only growth can regress *)
  | Exact  (** e.g. pruning counts: any drift regresses *)

type tolerance = { metric : string; rel : float; direction : direction }

val default_tolerances : tolerance list
(** [gflops] 2% higher-better; [transactions] and [cost] lower-better
    with zero allowance; [enumerated]/[kept]/[bound_aborted]/
    [bound_abort_rate] exact.  Unlisted metrics never gate. *)

type verdict =
  | Regression  (** drifted past tolerance in the harmful direction *)
  | Improvement  (** drifted past tolerance in the helpful direction *)
  | Within  (** inside tolerance *)
  | Missing  (** present in the baseline, absent from the run — fatal *)
  | Added  (** new in the run, not gated *)

type delta = {
  entry : string;
  strategy : string;
  metric : string;
  baseline : float option;
  current : float option;
  rel_change : float;  (** signed, vs the baseline value *)
  verdict : verdict;
}

val diff : ?tolerances:tolerance list -> baseline:doc -> doc -> delta list
(** [diff ~baseline current]: every (entry, strategy, gated-or-missing
    metric) pair, deterministic order.  [Missing] also covers whole
    entries or strategies that disappeared. *)

val regressions : delta list -> delta list
(** The fatal subset: [Regression] and [Missing] verdicts. *)

val render_diff : target:string -> delta list -> string
(** Human-readable summary (regressions first, then improvements; the
    [Within]/[Added] bulk as one count line). *)
