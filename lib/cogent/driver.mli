(** End-to-end planning: streamed enumerate→prune→rank ({!Pipeline}) →
    measured refinement → plan.

    This is the public entry point mirroring the COGENT tool: given a
    contraction at a representative problem size and a {!Ctx.t} naming
    the target device, precision and selection policy, {!run} produces
    the best kernel plan together with the search statistics the paper
    reports (§IV-A3).  {!Codegen.emit} turns the plan into source. *)

open Tc_expr

type t = {
  plan : Plan.t;  (** the selected configuration (see [Ctx.refine]) *)
  ranked : (Mapping.t * float) list;
      (** the top-K surviving configurations, ascending model cost, where
          K = [max ctx.refine topk] (see {!run}); under a {!Ctx.t.budget}
          the budgeted survivor set instead, ranked in full *)
  prune_stats : Prune.stats;
  naive_space : float;  (** unpruned search-space size (§IV formula) *)
  degraded : bool;
      (** true when a {!Ctx.t.budget} truncated the surviving space before
          ranking, so the selection fell back toward the heuristic
          top-of-enumeration plan *)
  bound_aborted : int;
      (** prune survivors whose cost evaluation the streaming pipeline cut
          short (or discarded unranked) because they provably cost more
          than the current top-K bound — distinct from rule-based prunes,
          which are tallied in [prune_stats] *)
}

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

val run :
  Ctx.t -> ?auto_split:bool -> ?topk:int -> ?trace:Tc_obs.Trace.t
  -> Problem.t -> (t, error) result
(** Per the paper's methodology, the model ranks the pruned space and the
    top [ctx.refine] candidates (default 8) are then benchmarked with
    [ctx.measure] to select the final kernel; [refine = 1] gives pure
    model-driven selection.  When no measure is supplied the model ranking
    alone decides.  A [ctx.budget] caps how many surviving configurations
    are cost-ranked (see {!Ctx.t.budget}); a truncated search is flagged
    [degraded].

    The search streams candidates through {!Pipeline.search} rather than
    materializing the enumeration; [ranked] retains the
    [max ctx.refine topk] cheapest survivors ([topk] defaults to 8 —
    raise it when more of the ranking is wanted, e.g. for display).  The
    retained prefix, [prune_stats] and the selected plan are bit-identical
    at any job count.

    [auto_split:true] additionally considers the {!Tc_expr.Split.auto}
    rewriting of register-starved contractions (an extension §IV names) and
    keeps whichever variant [ctx.measure] scores higher — splitting is a
    pure relabeling of the same memory, so the winning plan's kernel
    applies to the original data unchanged.

    [trace] installs the given {!Tc_obs.Trace} context for the duration of
    the call (restoring any previous one), so every stage — the fused
    candidate pipeline ([driver.pipeline]), measured refinement, and
    anything they call — records spans into it.  Without [trace] (and with
    no ambient context installed) instrumentation is inert and the result
    is identical. *)

val run_exn :
  Ctx.t -> ?auto_split:bool -> ?topk:int -> ?trace:Tc_obs.Trace.t
  -> Problem.t -> t
(** {!run}, raising [Invalid_argument "Driver.run_exn: <error>"] on an
    error. *)

val top_plans : ?n:int -> t -> Plan.t list
(** The [n] (default 5) lowest-cost plans, e.g. to auto-tune among a model-
    selected shortlist as §VI suggests — capped by the retained [ranked]
    prefix (pass [run ~topk] to retain more). *)
