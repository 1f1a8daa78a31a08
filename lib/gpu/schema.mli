(** Kernel schemas the lowering can produce.

    [Classic] is the paper's synchronous GMEM→SMEM→REG ladder (Algorithm 1):
    load a slab, barrier, compute, barrier, repeat — load latency is never
    overlapped with compute.  [Pipelined] software-pipelines that K-loop:
    the SMEM slabs are double-buffered and the load of tile [t+1] (emitted
    as [cp.async] in the CUDA dialect) overlaps the compute of tile [t].
    [Pipelined_mma] additionally tags the compute phase as tensor-core
    MMA-fragment work for the precisions the hardware accelerates (fp16,
    tf32) — the emitted arithmetic stays the scalar outer product (the
    repo's honest substitute for WMMA intrinsics, see DESIGN.md), but the
    cost model prices it at the tensor-core FLOP rate and [Check] enforces
    fragment-shape divisibility of the block tile. *)

type t = Classic | Pipelined | Pipelined_mma

val to_string : t -> string
(** ["classic"] / ["pipelined"] / ["pipelined-mma"]. *)

val of_string : string -> t option
(** Case-insensitive; accepts the aliases [sync], [async], [mma], [tensor]. *)

val pp : Format.formatter -> t -> unit

val all : t list
(** Every schema, declaration order — [Classic] first, so ties in a
    cost race resolve to the paper's schema deterministically. *)

val smem_factor : t -> int
(** Shared-memory multiplier: 2 for the double-buffered schemas. *)

val extra_regs : t -> int
(** Additional per-thread registers the schema costs beyond the classic
    estimate: pipeline bookkeeping (buffer parity, prefetch addresses)
    and, for MMA, fragment storage. *)

val pipelined : t -> bool
(** True for the double-buffered (async-staged) schemas. *)

val mma : t -> bool

val fragment_shape : Precision.t -> (int * int * int) option
(** The (m, n, k) MMA fragment shape for a tensor-core precision —
    [Some (16,16,16)] for fp16, [Some (16,16,8)] for tf32, [None] for the
    precisions the tensor cores do not accelerate (in this model). *)

val admits_precision : t -> Precision.t -> bool
(** Whether a schema can be built for a precision at all:
    [Pipelined_mma] requires a tensor-core precision. *)
