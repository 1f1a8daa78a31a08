(** Column-major matrix multiplication over flat [float array]s.

    Matrices follow the same FVI-first convention as tensors: element
    [(i, j)] of an [m x n] matrix lives at offset [i + m*j].  This is the
    GEMM kernel the TTGT baseline lowers contractions onto. *)

val gemm :
  m:int -> n:int -> k:int -> a:float array -> b:float array -> c:float array
  -> unit
(** [gemm ~m ~n ~k ~a ~b ~c] computes [C <- A * B + C] where [A] is [m x k],
    [B] is [k x n] and [C] is [m x n], all column-major.
    @raise Invalid_argument if an array is too small. *)

val matmul : Dense.t -> Dense.t -> Dense.t
(** [matmul a b] multiplies two rank-2 tensors [a : (i, k)] and [b : (k', j)]
    where the contraction runs over [a]'s second and [b]'s first axis; the
    result has shape [(i, j)] named after those outer indices.
    @raise Invalid_argument unless both are rank 2 with matching inner
    extents and the outer index names differ. *)
