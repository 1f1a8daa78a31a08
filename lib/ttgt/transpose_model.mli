(** cuTT-like tensor transposition performance model.

    Index permutation is bandwidth-bound: every element is read and written
    once.  Achieved bandwidth depends on how well a tiled transpose kernel
    can coalesce both sides, which degrades when the fastest-varying index
    of the source or of the destination has a small extent. *)

open Tc_tensor
open Tc_gpu

type result = {
  time_s : float;
  bytes : float;
  efficiency : float;  (** achieved fraction of peak DRAM bandwidth *)
  identity : bool;  (** true when no data movement was needed *)
}

val run :
  Arch.t -> Precision.t -> sizes:int Index.Map.t -> src:Index.t list
  -> dst:Index.t list -> result
(** [run arch prec ~sizes ~src ~dst] models permuting a tensor laid out as
    [src] into layout [dst].  An identity permutation costs nothing.
    @raise Invalid_argument if [dst] is not a permutation of [src] or an
    extent is missing. *)
