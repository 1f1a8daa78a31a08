(** Genetic-algorithm autotuner over the unpruned configuration space,
    mirroring the tuner shipped with Tensor Comprehensions (the paper ran it
    with population 100 and 20 generations).

    Selection is by tournament, reproduction by uniform crossover plus
    point mutation, with elitism.  Every candidate evaluation "runs" the
    kernel on the simulator; the tuner records the best GFLOPS seen after
    each evaluated code version, which is exactly the x-axis of the paper's
    Fig. 8. *)

open Tc_gpu
open Tc_expr

type params = {
  population : int;
  generations : int;
  tournament : int;
  mutation_rate : float;
  elite : int;
  seed : int;
}

val default_params : params
(** population 100, generations 20, tournament 3, mutation 0.2, elite 2,
    seed 42. *)

type trace_point = {
  evaluations : int;  (** distinct code versions run so far *)
  best_gflops : float;
  current_gflops : float;  (** the version evaluated at this point *)
}

type result = {
  best : Cogent.Mapping.t;
  best_gflops : float;
  trace : trace_point list;  (** chronological; one point per candidate *)
  evaluations : int;
      (** distinct simulator calls: fitness is memoized per decoded
          mapping within a run, so re-bred duplicates cost nothing *)
  tuning_time_s : float;
      (** simulated wall-clock tuning time: the sum of every evaluated
          version's simulated runtime times the benchmarking repetitions,
          plus per-version compile time — the quantity the paper reports as
          "total tuning time ~8514 seconds" *)
}

val tc_quality_factor : float
(** 0.9: the residual code-quality gap of the polyhedral generator's
    kernels versus COGENT's hand-shaped schema (index-arithmetic overhead,
    less precise unrolling); the structural gap — no register tiling — is
    in {!Space} itself.  See DESIGN.md substitutions. *)

val fitness :
  Arch.t -> Precision.t -> Problem.t -> Cogent.Mapping.t -> float
(** Simulated GFLOPS of one configuration, scaled by
    {!tc_quality_factor}; 0 for hardware-infeasible points. *)

val tune :
  ?params:params -> ?eval:(Cogent.Mapping.t -> float * float)
  -> Arch.t -> Precision.t -> Problem.t -> result
(** Runs the tuner.  [eval mapping] must return [(gflops, runtime_s)] for
    one candidate; it defaults to the simulator-backed {!fitness} paired
    with the simulated runtime, and exists so tests
    can count or stub evaluations.  It must be pure: calls are memoized
    per mapping and may run concurrently on the domain pool.  Candidate
    generation (the [seed]-derived RNG stream) stays sequential, so the
    result is bit-identical at any job count. *)
