(** Hardware and performance constraints (§IV-A1, §IV-A2).

    Hardware constraints reject configurations that cannot run at all
    (shared-memory or register overflow, too many threads).  Performance
    constraints reject configurations expected to perform poorly
    (uncoalesced access to a tensor's FVI, too few thread blocks, low
    occupancy).  On the evaluated benchmarks about 97% of enumerated
    configurations are pruned (§IV-A3). *)

open Tc_gpu
open Tc_expr

type reason =
  | Too_many_threads
  | Too_few_threads  (** blocks smaller than one warp waste lanes *)
  | Smem_overflow
  | Regs_overflow
  | Low_occupancy  (** below {!min_occupancy} *)
  | Too_few_blocks  (** fewer than [min_blocks_factor * SMs] blocks *)
  | Uncoalesced_out  (** output FVI tile too small for coalesced stores *)
  | Uncoalesced_lhs  (** lhs FVI tile too small for coalesced loads *)
  | Uncoalesced_rhs

val reason_to_string : reason -> string

val reason_slug : reason -> string
(** Machine-friendly name ([smem_overflow], ...) used in metric names and
    JSON exports. *)

val all_reasons : reason list
(** Every rule, in declaration order — drives itemized audit tables. *)

type klass =
  | Hardware
  | Perf_occupancy
  | Perf_blocks
  | Perf_coalescing_out
  | Perf_coalescing_in
      (** Constraint classes of §IV-A1/§IV-A2: hardware feasibility versus
          the three families of performance rules.  Relaxation (below)
          drops performance classes, never [Hardware]. *)

val klass_of_reason : reason -> klass
val klass_to_string : klass -> string

val min_occupancy : float
val min_blocks_factor : int
val min_fvi_tile : int

val regs_per_thread : Precision.t -> Mapping.t -> int
(** Register footprint estimate: accumulators + staging vectors (doubled in
    FP64, registers being 32-bit) plus a fixed allowance for index
    arithmetic. *)

val regs_of_elems : Precision.t -> int -> int
(** [regs_per_thread] from a precomputed
    [Mapping.reg_elems_per_thread]. *)

val smem_bytes : Precision.t -> Mapping.t -> int

val occupancy : Arch.t -> Precision.t -> Mapping.t -> Occupancy.result

type stats = {
  enumerated : int;
  kept : int;
  pruned : (reason * int) list;  (** per-reason counts, descending *)
  hardware_rejects : int;  (** rejections by [Hardware]-class rules *)
  performance_rejects : int;  (** rejections by any performance rule *)
  relaxed : bool;
      (** true when performance constraints had to be relaxed because no
          configuration satisfied them (tiny problems) — a documented
          deviation to keep every contraction compilable *)
  relax_attempts : int;
      (** relaxation rounds tried before one yielded survivors (0 when the
          strict rule set already kept something) *)
}

val pruned_count : stats -> reason -> int
(** Count for one rule (0 when it rejected nothing). *)

val pp_stats : Format.formatter -> stats -> unit

(** {2 Checking candidates}

    The planner ({!Pipeline}) checks candidates without materializing
    them.  A {!checker} hoists everything per-problem out of the hot loop
    (FVI thresholds, block floor, class membership); {!verdict} is then
    one allocation-free int function of the candidate's sizes, and the
    only implementation of the rules. *)

type checker
(** Per-problem constraint context for one class set. *)

val checker : ?performance:bool -> Arch.t -> Problem.t -> checker
(** Checker for the primary pass: all classes, or [Hardware] only when
    [performance:false] (the ablation hook for what §IV-A2's rules buy). *)

val checker_of_classes : klass list -> Arch.t -> Problem.t -> checker
(** Checker for an explicit class set (the relaxation passes). *)

val verdict :
  checker ->
  threads:int ->
  smem:int ->
  regs:int ->
  blocks:int ->
  out_tile:int ->
  lhs_tile:int ->
  rhs_tile:int ->
  int
(** First violated constraint of the checker's classes, as its
    {!reason_index}, hardware constraints first; [-1] means the
    candidate survives.  The arguments are the candidate's
    [Mapping.threads_per_block], {!smem_bytes}, {!regs_per_thread} (not
    clamped), [Mapping.num_blocks] and the tiles of the output, lhs and
    rhs FVIs.  The occupancy rules use the arithmetic of
    [Occupancy.calculate] inlined (registers clamped to 255, as in
    {!occupancy}), so the verdict never allocates. *)

val relax_attempts_classes : klass list list
(** The relaxation ladder walked when the strict pass keeps nothing: class
    sets that drop performance rules, strongest first and [\[Hardware\]]
    last — hardware constraints are never relaxed.  The first set with
    survivors wins. *)

val reason_index : reason -> int
(** Position of a reason in {!all_reasons} — the code {!verdict} returns
    and the tally-array slot used by {!stats_of_tally}. *)

val reason_of_index : int -> reason
(** Inverse of {!reason_index}. *)

val num_reasons : int

val stats_of_tally :
  enumerated:int ->
  kept:int ->
  relaxed:bool ->
  relax_attempts:int ->
  int array ->
  stats
(** Build {!stats} from a reject tally indexed by {!reason_index}
    (length {!num_reasons}).  The [pruned] list is rendered canonically:
    count-descending, declaration order on ties — chunk-wise tallies
    summed in any grouping produce the identical value a sequential pass
    would. *)

val emit_stats_metrics : stats -> unit
(** Emit the [cogent.prune.*] counters for one search — called once per
    search by {!Driver}, outside any parallel section. *)
