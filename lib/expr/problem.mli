(** A contraction together with its representative problem size — the unit of
    work every planner, baseline and benchmark in this repository consumes. *)

open Tc_tensor

type t = private { info : Classify.info; sizes : Sizes.t }

val make : Ast.t -> Sizes.t -> (t, string) result
(** Validates the contraction ({!Classify.analyse}) and that [sizes] covers
    every index. *)

val make_exn : Ast.t -> Sizes.t -> t

val analyse : string -> (Classify.info, string) result
(** Parses either concrete syntax and classifies the contraction. *)

val of_info : Classify.info -> Sizes.t -> (t, string) result
(** {!make} for an already-classified contraction, so callers holding many
    problems of one contraction can share its [info].  The one place
    extents are bound to a contraction; it checks that [sizes] covers
    every index and that the iteration space — the product of all
    extents, formed in float — does not exceed 2^53.

    The bound keeps every count derived from a problem exact.  Each
    native-int product the planner, simulator and serving path form (a
    tensor volume, [Plan.num_blocks], a step count, a tile sweep)
    multiplies extents, or per-index quantities no larger than an extent
    (tiles, block counts), over a subset of the indices: it is no larger
    than the iteration space, far below [max_int] (2^62 - 1) even after a
    byte-size factor.  FLOPs and padded FMA counts are formed in float,
    where integers are exact up to 2^53.  Above the bound an int product
    can wrap, and the predicted time and GFLOPS mean nothing. *)

val of_string : string -> sizes:(Index.t * int) list -> (t, string) result
(** {!Sizes.make}, {!analyse}, then {!of_info}: [Error] also when [sizes]
    has duplicates or non-positive extents. *)

val of_string_exn : string -> sizes:(Index.t * int) list -> t

val info : t -> Classify.info
val sizes : t -> Sizes.t
val extent : t -> Index.t -> int

val flops : t -> float
(** [2 * prod(extent of every index)] — the arithmetic work of the
    contraction. *)

val out_shape : t -> Shape.t
(** Shape of the output tensor (original layout). *)

val lhs_shape : t -> Shape.t
(** Shape of the {e canonical} left input (after any lhs/rhs swap). *)

val rhs_shape : t -> Shape.t

val out_elems : t -> int

val pp : Format.formatter -> t -> unit
