(** Index permutation (tensor transposition).

    This is the building block of the TTGT baseline: producing a copy of a
    tensor whose indices are laid out in a different order, e.g.
    [TA\[a,b,e,f\] = A\[a,e,b,f\]]. *)

val permute : dst_indices:Index.t list -> Dense.t -> Dense.t
(** [permute ~dst_indices t] returns a fresh tensor with the same named
    elements as [t] but laid out in [dst_indices] order (FVI first).
    @raise Invalid_argument if [dst_indices] is not a permutation of the
    indices of [t]. *)

val is_identity : src:Index.t list -> dst:Index.t list -> bool
(** True iff the permutation from [src] order to [dst] order is the
    identity (no data movement needed). *)
