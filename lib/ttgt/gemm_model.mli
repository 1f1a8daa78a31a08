(** cuBLAS-like GEMM performance model.

    Models the library matrix-multiply the TTGT baseline lowers onto:
    near-peak throughput for large roughly-square operands, degraded
    efficiency for skinny shapes (small K, or a small M/N side), and a
    cache-blocked DRAM traffic estimate combined in a roofline.  The
    shape-dependence is the effect the paper highlights: "library
    matrix-multiplication routines often achieve much lower performance for
    such [highly rectangular] matrices". *)

open Tc_gpu

type result = {
  time_s : float;
  gflops : float;
  flops : float;
  bytes : float;
  efficiency : float;  (** achieved fraction of device peak *)
}

val run : Arch.t -> Precision.t -> m:int -> n:int -> k:int -> result
(** [run arch prec ~m ~n ~k] models [C(m x n) += A(m x k) * B(k x n)]. *)
