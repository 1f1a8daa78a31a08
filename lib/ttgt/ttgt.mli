(** The TTGT (Transpose-Transpose-GEMM-Transpose) baseline, modeled after
    TAL_SH: lower a contraction onto a library GEMM by index permutation.

    The planner groups the external indices of each input into the GEMM M/N
    dimensions and the contraction indices into K, then searches the small
    space of group orders and operand orientations for the variant needing
    the cheapest permutations: an input whose layout already has its two
    groups contiguous (in either order) needs no transpose, mirroring
    cuBLAS's [op(A)] arguments; likewise the output transpose is skipped
    when the GEMM can directly produce C's layout. *)

open Tc_tensor
open Tc_gpu
open Tc_expr

type permute_step = { operand : string; src : Index.t list; dst : Index.t list }

type t = {
  problem : Problem.t;
  m_order : Index.t list;  (** lhs externals, GEMM row-group order *)
  n_order : Index.t list;
  k_order : Index.t list;
  m : int;
  n : int;
  k : int;
  swapped_output : bool;
      (** true when the GEMM computes [C^T] (operands exchanged) so that no
          output permute — or a cheaper one — is needed *)
  permutes : permute_step list;  (** the data movements actually required *)
}

val candidates : Problem.t -> t list
(** The variants [plan_ctx ~optimize:true] searches, in search order; the
    first is the [optimize:false] plan. *)

val plan_ctx : Cogent.Ctx.t -> ?optimize:bool -> Problem.t -> t
(** With [optimize:false] (the default), the TAL_SH-faithful lowering: M/K
    group orders follow the lhs input's layout and N follows the rhs's, and
    the GEMM result is permuted into C's layout — identity permutes are
    skipped but no search happens.  With [optimize:true] (an extension, see
    DESIGN.md), the small space of group orders and operand orientations is
    searched for the cheapest-permutation variant under the context's
    device and precision movement model. *)

type estimate = {
  time_s : float;
  gflops : float;
  transpose_time_s : float;
  gemm_time_s : float;
  gemm : Gemm_model.result;
  transpose_bytes : float;
}

val estimate : Arch.t -> Precision.t -> t -> estimate
(** Includes a fixed TAL_SH host-runtime overhead per contraction call. *)

val run_ctx : Cogent.Ctx.t -> ?optimize:bool -> Problem.t -> estimate
(** [plan_ctx] + [estimate] on the context's device/precision — the TTGT
    side of the serving layer's dispatch comparison.  (The historical
    optional-argument [plan]/[run] wrappers are gone; build a
    {!Cogent.Ctx.t} — {!Cogent.Ctx.default} is V100/FP64.) *)

val execute : ?optimize:bool -> Problem.t -> lhs:Dense.t -> rhs:Dense.t -> Dense.t
(** Functional execution of the TTGT pipeline (permute, GEMM, permute) on
    host tensors (planned under {!Cogent.Ctx.default} — the variant choice
    is device-independent); used to validate the lowering against the
    direct reference contraction. *)
