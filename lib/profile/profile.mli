(** nvprof for the simulated hardware: predicted-vs-measured counters.

    The paper's central claim is that an analytical model of DRAM
    transactions is accurate enough to rank kernels.  This module
    {e verifies} that claim inside the reproduction: {!profile} replays
    the emitted schedule with {!Cogent.Interp.measure} (ground-truth
    counters: every block, every step, every guarded lane), runs the
    simulator's boundary-exact prediction
    ({!Tc_sim.Simkernel.transactions_exact}, no-L2) and the coarse
    Algorithm-3 charge sheet ({!Cogent.Cost.explain}) side by side, and
    reports per-quantity divergence.

    Two accuracy contracts are enforced, not averaged away:

    - the {e simulator} prediction must agree with the measurement
      {e exactly} (a zero bound) — both sides count the same
      {!Cogent.Txcount} convention, so any gap is a bug in the pattern
      combinatorics;
    - the {e cost model} must stay within a 0.5 relative error
      ([cost_bound], see EXPERIMENTS.md for the observed errors; it
      deliberately overcharges boundary tiles to stay cheap
      enough for millions of rankings); rows beyond the bound are
      flagged in the rendered report and in the JSON.

    The profiler also emits a Chrome-trace timeline of the simulated
    execution (per-SM block waves, GMEM→SMEM staging vs compute vs store
    phases) through the {!Tc_obs} exporters, on a virtual clock so the
    output is deterministic. *)

open Cogent

type row = {
  quantity : string;
  measured : float;
  sim : float option;  (** simulator prediction, when it makes one *)
  model : float option;  (** Algorithm-3 / analytic prediction *)
  sim_abs : float;  (** [|sim - measured|], 0 when [sim = None] *)
  sim_rel : float;
  model_abs : float;
  model_rel : float;
}
(** One line of the divergence table.  Relative errors are against the
    measurement: [|predicted - measured| / max measured 1]. *)

val signed_error : measured:float -> float -> float
(** [signed_error ~measured predicted] is
    [(predicted - measured) / max |measured| 1]: positive when the
    prediction over-charges.  A {!row}'s relative errors are its
    magnitude; the clamp keeps tiny denominators from exploding the
    ratio. *)

type t = {
  plan : Plan.t;
  counters : Interp.counters;  (** the measured side *)
  sim_result : Tc_sim.Simkernel.result;
  exact : Cost.breakdown;  (** simulator transactions, no-L2 *)
  exact_l2 : Cost.breakdown;  (** with the plan's arch L2 discount *)
  cost : Cost.explanation;  (** Algorithm-3 charge sheet *)
  rows : row list;
  worst : row option;
      (** largest cost-model relative error among rows with a model
          prediction *)
  cost_bound : float;  (** the bound rows were checked against *)
  timeline : Tc_obs.Trace.event list;
}

val profile : Plan.t -> t
(** Measure, predict and cross-validate one plan.  Pure and
    deterministic; cost grows with [blocks * steps * tile volume] (full
    TCCG sizes take well under a second). *)

val sim_agrees : t -> bool
(** [true] iff every simulator prediction matches its measurement
    exactly. *)

val violations : t -> row list
(** Rows whose cost-model relative error exceeds [cost_bound]. *)

val render : t -> string
(** The divergence table plus plan header, worst-offender flag and
    simulator verdict — what [cogent profile] prints. *)

val to_json : t -> Tc_obs.Json.t
(** Machine-readable report (round-trips through {!Tc_obs.Json.parse}). *)

val timeline_chrome : t -> string
(** The simulated-execution timeline as Chrome [trace_event] JSON. *)
