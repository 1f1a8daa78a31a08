(** Analytical execution simulator for generated kernels.

    Stands in for running the emitted CUDA on real P100/V100 hardware (see
    DESIGN.md, substitutions).  Unlike the Algorithm-3 cost model — which
    deliberately stays coarse because it has to rank millions of
    configurations — the simulator "measures" a single plan in more detail:

    - exact DRAM transaction counts including boundary (partial) tiles and
      transaction granularity per tensor;
    - occupancy-derated achievable bandwidth and a low-concurrency penalty
      when the grid cannot fill the device;
    - an instruction-mix ceiling on compute throughput (outer-product FMAs
      vs shared-memory loads and loop overhead), with padded-tile compute
      counted in full as real kernels do;
    - a roofline combination plus kernel launch latency.

    The absolute constants are calibrated against the GFLOPS ranges
    published in the paper (see EXPERIMENTS.md); relative behaviour between
    configurations emerges from the traffic and occupancy math.

    The plan's kernel schema changes the roofline terms: pipelined schemas
    saturate DRAM at a lower occupancy (async copies cover load latency
    without resident-warp parallelism), and the MMA schema prices compute
    against the device's dense tensor-core rate derated by
    [Arch.mma_issue_eff] instead of the scalar FMA/ILP model.  Classic
    plans are priced exactly as before the schemas existed. *)

type bound = Memory | Compute | Latency

val pp_bound : Format.formatter -> bound -> unit

type detail = {
  tx_lhs : float;  (** DRAM-equivalent transactions loading the lhs *)
  tx_rhs : float;
  tx_out : float;  (** transactions storing the output *)
  mem_eff : float;
      (** achieved fraction of peak DRAM bandwidth (base streaming
          efficiency × occupancy saturation × concurrency × warp fill) *)
  comp_eff : float;  (** achieved fraction of peak FLOP issue rate *)
  warp_eff : float;  (** lane utilization of sub-warp blocks *)
  ilp_eff : float;  (** FMA slots vs register staging + loop overhead *)
  launch_s : float;  (** kernel launch latency charged *)
}
(** The roofline components behind a {!result} — how each derating factor
    contributed, so a prediction can be audited term by term (the same
    inspectability argument Peise et al. make for BLAS-based prediction). *)

type result = {
  time_s : float;
  gflops : float;
  transactions : float;  (** simulated DRAM transactions (in-range) *)
  bytes : float;
  mem_time_s : float;
  compute_time_s : float;
  occupancy : float;
  concurrency : float;  (** fraction of the device the grid can fill *)
  bound : bound;
  detail : detail;
}

val run : Cogent.Plan.t -> result
(** Simulate one kernel execution of the plan at its problem's
    representative size. *)

val gflops : Cogent.Plan.t -> float
(** [(run plan).gflops]. *)

(** {1 Schema race}

    The one place that decides which kernel schema wins for a mapping;
    [serve], [explain], the [plan] subcommand and the schema figure all
    read their lanes from here. *)

type race = {
  lanes : (Tc_gpu.Schema.t * result) list;
      (** one per feasible schema, in {!Cogent.Plan.feasible_schemas} order *)
  classic : result;
  pipelined : (Tc_gpu.Schema.t * result) option;
      (** fastest pipelined lane, the earliest on equal times; [None] on
          devices without async copies *)
  chosen : Tc_gpu.Schema.t * result;
      (** the faster of classic and [pipelined]; classic wins ties *)
}

val race : Cogent.Plan.t -> race
(** Simulate [Plan.with_schema sc plan] once for every feasible schema
    [sc] of the plan's mapping (the plan's own schema is one of them).
    The mapping's transactions do not depend on the schema, so they are
    counted once for all lanes; each lane equals [run] of its plan. *)

val race_of_lanes : (Tc_gpu.Schema.t * result) list -> race
(** The decision behind {!race}, over lanes already simulated.
    [Invalid_argument] when no lane is [Classic]. *)

val lane : race -> Tc_gpu.Schema.t -> result
(** The lane of one schema; [Not_found] when it was not feasible. *)

val transactions_exact :
  ?arch:Tc_gpu.Arch.t -> Tc_gpu.Precision.t -> Tc_expr.Problem.t
  -> Cogent.Mapping.t -> Cogent.Cost.breakdown
(** Boundary-exact transaction counts (the simulator's memory model),
    exposed for validation against the Algorithm-3 estimates.  When [arch]
    is given, input-tensor reloads that fit in its L2 are discounted to
    their DRAM-equivalent cost. *)
