(** Cost-model explainability: why the generator picked what it picked.

    [analyze] plans a contraction through {!Cogent.Driver.run} and keeps
    the evidence the paper's argument rests on (§IV–§V): the per-rule
    pruning audit, the Algorithm-3 DRAM charge sheet of each surviving
    candidate (transactions per tensor, contiguous-run lengths, coalescing
    efficiency), the occupancy limiter, and the simulator's roofline
    breakdown — roughly what the authors read off nvprof on real hardware.

    Everything here is a pure function of the analytical models, so
    [render] output is deterministic and golden-testable. *)

open Tc_gpu
open Tc_expr
open Cogent

type candidate = {
  rank : int;  (** 1-based position in the model ranking *)
  evidence : Tc_profile.Evidence.t;
      (** the mapping's plan with its charge sheet and schema race (never
          measured); the report shows the race's classic lane and, on
          devices with async copies, its fastest pipelined lane *)
}

type t = {
  problem : Problem.t;
  arch : Arch.t;
  precision : Precision.t;
  naive_space : float;
  stats : Prune.stats;
  candidates : candidate list;  (** ascending model cost *)
}

val analyze : Ctx.t -> ?top:int -> Problem.t -> (t, Driver.error) result
(** Plan [problem] with [Driver.run ctx ~topk:top] and explain the first
    [top] (default 3, at least 1) mappings of its model ranking, with its
    prune stats and naive space — the same search and refinement
    every other entry point runs.  [Error] is the driver's: e.g.
    [Driver.No_viable_mapping stats] when no hardware-feasible
    configuration exists — the stats carry the per-rule pruning audit so
    callers can print {i why} (see [cogent explain]). *)

val render : t -> string
(** The full human-readable report (what [cogent explain] prints). *)

val to_json : t -> Tc_obs.Json.t
(** The same content as a machine-readable tree. *)
