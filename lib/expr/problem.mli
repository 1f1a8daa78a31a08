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
(** {!make} for an already-classified contraction: checks only that
    [sizes] covers every index, so callers holding many problems of one
    contraction can share its [info]. *)

val of_string : string -> sizes:(Index.t * int) list -> (t, string) result
(** {!analyse}, then {!of_info}.
    @raise Invalid_argument when [sizes] has duplicates or non-positive
    extents ({!Sizes.of_list}). *)

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
val lhs_elems : t -> int
val rhs_elems : t -> int

val pp : Format.formatter -> t -> unit
