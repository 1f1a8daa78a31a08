(** Host-side execution of a kernel plan.

    Runs the schedule the CUDA generator emits (Algorithm 1): the grid is
    decomposed per external index, each block stages hyper-rectangular
    slabs of both inputs into simulated shared memory once per step
    (guarded, zero-padded at boundaries), each (thread, register
    coordinate) accumulates outer-product contributions across the serial
    TB_k dimension, and finalized register tiles are stored back with
    bounds guards.

    What is mirrored: the block and step order, the zero-padding guards on
    loads and stores, and each thread's accumulation order over TB_k, so
    agreement with {!Tc_tensor.Contract_ref} validates the schedule the
    generator emits, not just the contraction.  What is table-driven: the
    addressing.  One per-plan schedule gives each operand axis its tile,
    extent, tensor stride and block/step slot.  A slab fill walks those
    strides over the in-range corner of the tile and zero-fills the rest.
    The outer products add precomputed slab offsets.  Stores combine
    per-thread and per-register offset-and-guard tables evaluated once per
    block.  The counter replay ({!measure}) follows the emitted cooperative
    sweeps lane by lane instead.  The kernel schema is not consulted:
    pipelined plans run and are counted as the classic schedule. *)

open Tc_tensor

type counters = {
  mutable tx_lhs : float;
      (** DRAM transactions loading the canonical lhs (all blocks, all
          steps), counted with the {!Txcount} convention *)
  mutable tx_rhs : float;
  mutable tx_out : float;  (** DRAM transactions storing the output *)
  mutable smem_bytes : float;
      (** bytes staged into shared memory (padded slabs, every step) *)
  mutable fma_padded : float;
      (** FMA slots issued by the padded loop structure *)
  mutable fma_useful : float;
      (** FMAs contributing to an in-range output at an in-range k *)
  mutable store_tx_block_max : float;
      (** largest per-block store traffic, in transactions *)
  mutable blocks : int;
  mutable steps : int;
}
(** Ground-truth hardware counters for one execution of the emitted
    schedule — the measured side of what {!Cost.estimate} and
    {!Tc_sim.Simkernel.transactions_exact} predict. *)

val execute : Plan.t -> lhs:Dense.t -> rhs:Dense.t -> Dense.t
(** [execute plan ~lhs ~rhs] contracts the tensors given {e as written} in
    the original expression (any lhs/rhs canonicalization swap is resolved
    internally) and returns the output tensor in its declared layout.
    The hardware counters of the same schedule are {!measure}'s: the
    access replay does not depend on tensor values.
    @raise Invalid_argument if a tensor's shape does not match the plan's
    problem. *)

val measure : Plan.t -> counters
(** [measure plan] is the counter-only replay: the same per-(block, step)
    schedule walk {!execute} performs, without allocating or touching
    tensor data — usable at full TCCG problem sizes where a data
    execution would be prohibitive. *)
