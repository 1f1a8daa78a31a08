(** Small sets of tensor indices as int bitsets.

    An {!Tc_tensor.Index.t} is one of the 26 letters [a..z], so a whole
    index set fits in one immediate [int] (bit [i - 'a'] set iff [i] is a
    member).  The planner's inner loops — enumeration products, prune
    checks, cost sweeps — run membership tests and unions per candidate
    configuration; with this representation they are single machine
    instructions and allocate nothing, unlike the [Index.t list] /
    [Index.Set] operations they replace. *)

open Tc_tensor

type t = private int
(** A set of indices.  The representation is exposed as [private int] so
    hot loops can compare and hash sets for free; construct only through
    the functions below. *)

val slot : Index.t -> int
(** [slot i] is the bit position of [i]: [0] for ['a'] … [25] for ['z'].
    Also the canonical array slot for per-index side tables (see
    [Cogent.Tiles]). *)

val empty : t
val is_empty : t -> bool
val add : Index.t -> t -> t
val remove : Index.t -> t -> t
val mem : Index.t -> t -> bool
val of_list : Index.t list -> t
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val equal : t -> t -> bool
val subset : t -> t -> bool
(** [subset a b] iff every member of [a] is in [b]. *)

val disjoint : t -> t -> bool
val cardinal : t -> int

val to_list : t -> Index.t list
(** Members in ascending order. *)
