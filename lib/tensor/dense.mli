(** Dense tensors over [float], stored in the canonical FVI-first layout
    described by their {!Shape.t}.

    Element [(i0, i1, ..., ik)] (given in shape order, FVI first) lives at
    linear offset [i0 + N0*(i1 + N1*(i2 + ...))]. *)

type t

val create : Shape.t -> t
(** A zero-filled tensor. *)

val shape : t -> Shape.t
val numel : t -> int

val get : t -> int array -> float
(** [get t pos] reads the element at multi-index [pos] (shape order).
    @raise Invalid_argument if [pos] has the wrong rank or is out of range. *)

val set : t -> int array -> float -> unit

val unsafe_data : t -> float array
(** The underlying flat array (canonical layout).  Exposed for the tight
    loops of {!Matmul} and the plan interpreter. *)

val strides : t -> int array
(** Per-axis linear strides in shape order ([strides.(0) = 1]); a fresh
    array the caller may keep.  Pairs with {!unsafe_get}/{!unsafe_set}
    for loops that precompute their own offsets. *)

val unsafe_get : t -> int -> float
(** [unsafe_get t off] reads linear offset [off] with {e no} bounds
    check.  Callers must have validated the walk once up front (e.g. by
    bounding each axis against the shape); out-of-range offsets are
    undefined behaviour. *)

val unsafe_set : t -> int -> float -> unit

val init : Shape.t -> (int array -> float) -> t
(** [init shape f] fills each position [pos] with [f pos]. *)

val random : ?seed:int -> Shape.t -> t
(** Deterministically pseudo-random entries in [(-1, 1)]. *)

val map2 : (float -> float -> float) -> t -> t -> t
(** Pointwise combination. @raise Invalid_argument on shape mismatch. *)

val max_abs_diff : t -> t -> float
(** Largest absolute elementwise difference.
    @raise Invalid_argument on shape mismatch. *)

val equal_approx : ?tol:float -> t -> t -> bool
(** True iff shapes match and all elements differ by at most [tol]
    (default [1e-9]). *)

val iteri : t -> (int array -> float -> unit) -> unit
(** Iterates in linear-offset order; the position array is reused between
    calls and must not be stashed. *)
