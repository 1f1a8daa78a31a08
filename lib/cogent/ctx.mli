(** The front-door configuration record of the generator.

    A [Ctx.t] gathers target device, precision, schema and selection
    policy into one value that a calling runtime (the CLI, the
    {!Tc_serve} engine, a library embedder) builds once and threads
    everywhere: {!Driver.run}, {!Cache.find_or_generate_ctx},
    {!Variants.generate_ctx}, [Ttgt.plan_ctx].  It is the only way to
    pass these choices; no entry point repeats them as optional
    arguments. *)

open Tc_gpu

type measure = Plan.t -> float
(** Empirical throughput of a candidate plan (higher is better) — in this
    repository the kernel simulator, on real hardware a timed run. *)

type t = {
  arch : Arch.t;  (** target device (default V100) *)
  precision : Precision.t;  (** default FP64 *)
  schema : Schema.t option;
      (** kernel schema: [Some s] forces [s] (infeasible combinations make
          {!Plan.make} raise); [None] (the default) lets the driver race
          every feasible schema of each refined candidate under [measure],
          falling back to classic when there is no measure *)
  refine : int;
      (** how many top model-ranked candidates the driver benchmarks with
          [measure] (default 8; 1 = pure model-driven selection) *)
  measure : measure option;
      (** when [None], the model ranking alone decides *)
  jobs : int option;
      (** worker-domain count for the {!Tc_par.Pool} fan-outs; [None]
          leaves the process default ([COGENT_JOBS]) untouched *)
  budget : int option;
      (** search budget: at most this many surviving configurations are
          cost-ranked per generation.  [None] = unlimited.  When the
          budget truncates the space the result is flagged
          {!Driver.t.degraded} and the selection degrades toward the
          heuristic top-of-enumeration plan (budget [0] is clamped to 1:
          the first surviving configuration, no real ranking). *)
}

val default : t
(** V100, FP64, refine 8, no measure, process-default jobs, unlimited
    budget. *)

val make :
  ?arch:Arch.t -> ?precision:Precision.t -> ?schema:Schema.t -> ?refine:int
  -> ?measure:measure -> ?jobs:int -> ?budget:int -> unit -> t
(** {!default} with the given fields replaced. *)

val install_jobs : t -> unit
(** Apply {!t.jobs} to the process-global pool
    ({!Tc_par.Pool.set_default_jobs}); no-op when [jobs] is [None]. *)

val pp : Format.formatter -> t -> unit
(** One-line summary, e.g.
    [V100 fp64 refine=8 measured jobs=default budget=unlimited]. *)
