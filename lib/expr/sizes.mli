(** Representative problem sizes: the extent of each index.

    The code generator does not need exact problem sizes at compile time —
    only representative ones used by the cost model to pick tile sizes and
    mappings (§IV-B). *)

open Tc_tensor

type t = int Index.Map.t

val make : (Index.t * int) list -> (t, string) result
(** Order-insensitive: the entries are inserted in index order, so equal
    size maps are structurally identical (safe to compare with [=]).
    [Error] on duplicates or non-positive extents: the constructor for
    sizes read from outside the program. *)

val of_list : (Index.t * int) list -> t
(** {!make} for sizes the program built itself.
    @raise Invalid_argument where {!make} returns [Error]. *)

val uniform : Index.t list -> int -> t
(** Every listed index gets the same extent. *)

val parse : string -> (t, string) result
(** Parses ["a=16,b=24,c=8"]; whitespace around tokens is ignored. *)

val extent : t -> Index.t -> int
(** @raise Not_found if the index has no extent. *)

val extent_opt : t -> Index.t -> int option
val covers : t -> Index.t list -> bool
val product : t -> Index.t list -> int
(** Product of the extents of the given indices (1 for the empty list). *)

val to_list : t -> (Index.t * int) list
val pp : Format.formatter -> t -> unit
