(** nvprof for the simulated hardware: predicted-vs-measured counters.

    The paper's central claim is that an analytical model of DRAM
    transactions is accurate enough to rank kernels.  This module
    {e verifies} that claim inside the reproduction: {!profile} sets a
    plan's measured {!Evidence.t} — the schedule replay's ground truth,
    the simulator's boundary-exact count and the Algorithm-3 charge
    sheet — side by side and reports per-quantity divergence.

    Two accuracy contracts are enforced, not averaged away:

    - the {e simulator} prediction must agree with the measurement
      {e exactly} (a zero bound) — both sides count the same
      {!Cogent.Txcount} convention, so any gap is a bug in the pattern
      combinatorics;
    - the {e cost model} must stay within a 0.5 relative error
      (see EXPERIMENTS.md for the observed errors; it
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
  sim_rel : float;  (** 0 when [sim = None] *)
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
  evidence : Evidence.t;  (** the plan's record, measured *)
  rows : row list;
  worst : row option;
      (** largest cost-model relative error among rows with a model
          prediction *)
}

val profile : Plan.t -> t
(** Cross-validate one plan's {!Evidence.make} [~measure:true] record.
    Pure and deterministic (full TCCG sizes take well under a second). *)

val sim_agrees : t -> bool
(** [true] iff every simulator prediction matches its measurement
    exactly. *)

val violations : t -> row list
(** Rows whose cost-model relative error exceeds the 0.5 bound. *)

val render : t -> string
(** The divergence table plus plan header, worst-offender flag and
    simulator verdict — what [cogent profile] prints. *)

val to_json : t -> Tc_obs.Json.t
(** Machine-readable report (round-trips through {!Tc_obs.Json.parse}). *)

val timeline_chrome : t -> string
(** The simulated-execution timeline as Chrome [trace_event] JSON. *)
