(** Semantic analysis of a contraction.

    Validates the defining property of binary tensor contractions — every
    index occurs in exactly two of the three tensors — and derives the data
    the code generator needs:

    - {e external} indices appear in the output (and exactly one input);
    - {e internal} (contraction) indices appear in both inputs;
    - each index is a {e reuse direction} for exactly the tensor it does not
      index (§II of the paper).

    Analysis also {e canonicalizes} the expression so that the left input
    holds the output's FVI; Algorithm 2 of the paper assumes this.  When the
    inputs had to be swapped to achieve it, [swapped] is true. *)

open Tc_tensor

type role = External | Internal

type operand = Out | Lhs | Rhs


type info = {
  expr : Ast.t;  (** canonicalized: [expr.lhs] contains the output FVI *)
  original : Ast.t;  (** the expression as written *)
  swapped : bool;  (** true iff lhs/rhs were exchanged *)
  externals : Index.t list;  (** in output layout order *)
  internals : Index.t list;  (** in canonical-lhs layout order *)
  lhs_externals : Index.t list;  (** externals of the canonical lhs, lhs order *)
  rhs_externals : Index.t list;  (** externals of the canonical rhs, rhs order *)
  out_fvi : Index.t;
  lhs_fvi : Index.t;
  rhs_fvi : Index.t;
}

val analyse : Ast.t -> (info, string) result
val analyse_exn : Ast.t -> info

val role : info -> Index.t -> role
(** @raise Not_found for an index foreign to the contraction. *)

val reuse_tensor : info -> Index.t -> operand
(** [reuse_tensor info i] is the operand {e not} indexed by [i] — the tensor
    whose elements are reused across iterations of the [i] loop.
    @raise Not_found for a foreign index. *)

val all_indices : info -> Index.t list
(** Externals (output order) followed by internals (lhs order). *)
