(** A fully-resolved kernel plan: a contraction, a configuration that
    survived pruning, the target device, precision and kernel schema, and
    every derived launch quantity.  Plans are what the code generator emits,
    the interpreter executes and the simulator times. *)

open Tc_gpu
open Tc_expr

type t = {
  problem : Problem.t;
  mapping : Mapping.t;
  arch : Arch.t;
  precision : Precision.t;
  schema : Schema.t;
      (** kernel schema: classic synchronous ladder, or a software-pipelined
          variant (double-buffered SMEM, async copies; see
          {!Tc_gpu.Schema}) *)
  cost : float;  (** Algorithm-3 model cost (DRAM transactions) *)
}

val make :
  problem:Problem.t -> mapping:Mapping.t -> arch:Arch.t
  -> precision:Precision.t -> (t, string) result
(** Computes the model cost; the schema is [Classic] (use {!with_schema}).
    [Error] when the mapping fails {!Mapping.validate} for [problem] — the
    serving layer meets this whenever a request's own extents are smaller
    than a cached mapping's tiles, so it is a value, not an exception. *)

val with_schema : Schema.t -> t -> (t, string) result
(** The same plan under another kernel schema (the model cost — DRAM
    transactions — is schema-independent; only the simulator's timing
    distinguishes them).  [Error] says why the schema is infeasible for
    the configuration: MMA on a non-tensor-core precision, a pipelined
    schema on a device without async copies, double-buffered slabs above
    the block shared-memory budget, or a macro-tile that doesn't divide
    into MMA fragments. *)

val schema_feasible :
  arch:Arch.t -> precision:Precision.t -> mapping:Mapping.t -> Schema.t
  -> bool
(** Whether {!make} would accept this schema for the configuration.
    [Classic] is always feasible for a mapping that survived pruning. *)

val feasible_schemas :
  arch:Arch.t -> precision:Precision.t -> Mapping.t -> Schema.t list
(** The feasible subset of {!Tc_gpu.Schema.all}, in that (deterministic,
    Classic-first) order — the schema race the driver prices per
    candidate. *)

val threads_x : t -> int
val threads_per_block : t -> int

val smem_bytes : t -> int
(** Shared memory of the plan's kernel: the mapping's slab bytes times the
    schema's buffering factor (2x under the pipelined schemas). *)

val regs_per_thread : t -> int
(** Per-thread register estimate including the schema's bookkeeping
    registers ({!Tc_gpu.Schema.extra_regs}). *)

val kernel_regs : precision:Precision.t -> schema:Schema.t -> Mapping.t -> int
(** {!regs_per_thread} of a plan with these fields. *)

val kernel_occupancy :
  arch:Arch.t -> precision:Precision.t -> schema:Schema.t -> Mapping.t
  -> Occupancy.result
(** {!occupancy} of a plan with these fields: neither depends on the
    problem or the model cost, so the simulator prices a mapping at any
    extents without building a plan. *)

val num_blocks : t -> int
val num_steps : t -> int

val occupancy : t -> Occupancy.result
(** Occupancy under the schema-adjusted footprint (doubled SMEM and the
    extra registers lower it relative to the classic schema). *)

val flops : t -> float
val pp : Format.formatter -> t -> unit
