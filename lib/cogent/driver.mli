(** End-to-end planning: streamed enumerate→prune→rank ({!Pipeline}) →
    measured refinement → plan.

    This is the public entry point mirroring the COGENT tool: given a
    contraction at a representative problem size and a {!Ctx.t} naming
    the target device, precision and selection policy, {!run} produces
    the best kernel plan together with the search statistics the paper
    reports (§IV-A3).  {!Codegen.emit} turns the plan into source.  It is
    the one front door: every CLI subcommand that plans ([gen], [plan],
    [bench], [explain], [profile] and [serve]) goes through {!run}. *)

open Tc_expr

type t = {
  plan : Plan.t;  (** the selected configuration (see [Ctx.refine]) *)
  ranked : (Mapping.t * float) list;
      (** the top-K surviving configurations, ascending model cost, where
          K = [max ctx.refine topk] (see {!run}) *)
  prune_stats : Prune.stats;
  bound_aborted : int;
      (** prune survivors whose cost evaluation the streaming pipeline cut
          short (or discarded unranked) because they provably cost more
          than the current top-K bound — distinct from rule-based prunes,
          which are tallied in [prune_stats] *)
}
(** [plan] is what a served entry is; the other three fields describe
    the search that found it, and hold it only when that search ran in
    this process.  The unpruned search-space size (§IV formula) is a pure
    function of the problem: {!Enumerate.naive_space_size}.  An entry built by {!of_plan} (a plan loaded from a store)
    holds no search: see there. *)

val of_plan : Plan.t -> t
(** An entry for a plan whose search did not run in this process:
    [ranked] is [[(plan.mapping, plan.cost)]], [prune_stats] is all zero
    (with [relaxed = false]) and [bound_aborted] is 0. *)

type measure = Ctx.measure
(** Empirical throughput of a candidate plan (higher is better) — in this
    repository the kernel simulator, on real hardware a timed run. *)

type error =
  | No_viable_mapping of Prune.stats
      (** the contraction admits no hardware-feasible configuration (never
          observed for valid inputs); the stats say what rejected what *)
  | Bad_problem of string  (** invalid contraction or size map *)
  | Infeasible_schema of Tc_gpu.Schema.t * string
      (** a {!Ctx.t.schema} was forced but no ranked mapping admits it —
          e.g. [--schema mma] with an fp64 problem, or doubled SMEM slabs
          overflowing the device on every candidate; the string says why *)

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

val run : Ctx.t -> ?topk:int -> Problem.t -> (t, error) result
(** Per the paper's methodology, the model ranks the pruned space and the
    top [ctx.refine] candidates (default 8) are then benchmarked with
    [ctx.measure] to select the final kernel; [refine = 1] gives pure
    model-driven selection.  When no measure is supplied the model ranking
    alone decides: the first ranked mapping that admits a schema (the
    forced [ctx.schema], else Classic, which every mapping admits), under
    that schema.  The same pick stands when no refined candidate admits
    the forced schema.

    The search streams candidates through {!Pipeline.search} rather than
    materializing the enumeration; [ranked] retains the
    [max ctx.refine topk] cheapest survivors ([topk] defaults to 8 —
    raise it when more of the ranking is wanted, e.g. for display).  The
    retained prefix, [prune_stats] and the selected plan are bit-identical
    at any job count.

    Every stage — the fused candidate pipeline ([driver.pipeline]),
    measured refinement, and anything they call — records spans into the
    ambient {!Tc_obs.Trace} context; trace a call by running it under
    [Tc_obs.Trace.with_installed].  With no context installed
    instrumentation is inert and the result is identical. *)

val run_exn : Ctx.t -> ?topk:int -> Problem.t -> t
(** {!run}, raising [Invalid_argument "Driver.run_exn: <error>"] on an
    error. *)
