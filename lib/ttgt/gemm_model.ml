open Tc_gpu

type result = {
  time_s : float;
  gflops : float;
  flops : float;
  bytes : float;
  efficiency : float;
}

(* Calibration: the fraction of peak a large square GEMM reaches
   (cuBLAS-like). *)
let peak_fraction_large_square = 0.82

(* Register/smem blocking a cuBLAS-class GEMM uses; drives the traffic
   estimate and the tail-utilization term. *)
let block_m = 128
let block_n = 128

let run (arch : Arch.t) prec ~m ~n ~k =
  if m <= 0 || n <= 0 || k <= 0 then invalid_arg "Gemm_model.run: empty GEMM";
  let fm = float_of_int m and fn = float_of_int n and fk = float_of_int k in
  let esize = float_of_int (Precision.bytes prec) in
  let flops = 2.0 *. fm *. fn *. fk in
  (* Blocked traffic: A is streamed once per column-panel of B and vice
     versa; C is read and written once. *)
  let panels_n = Float.of_int ((n + block_n - 1) / block_n) in
  let panels_m = Float.of_int ((m + block_m - 1) / block_m) in
  let bytes =
    esize *. ((fm *. fk *. panels_n) +. (fk *. fn *. panels_m) +. (2.0 *. fm *. fn))
  in
  (* Shape efficiency: a small K starves the inner loop; a small M or N
     side leaves register tiles underfilled. *)
  let eff_k = fk /. (fk +. 16.0) in
  let small_side = float_of_int (min m n) in
  let eff_mn = small_side /. (small_side +. 64.0) in
  let efficiency = peak_fraction_large_square *. eff_k *. eff_mn in
  (* Tail utilization: not enough thread blocks to fill the device. *)
  let tiles = panels_m *. panels_n in
  let concurrency = Float.min 1.0 (tiles /. float_of_int arch.Arch.sms) in
  let peak = Arch.peak_gflops arch prec *. 1e9 in
  let t_comp = flops /. (peak *. efficiency *. concurrency) in
  let t_mem = bytes /. (arch.Arch.dram_bw_gbs *. 1e9 *. 0.85 *. concurrency) in
  let time_s = Float.max t_comp t_mem +. (arch.Arch.kernel_launch_us *. 1e-6) in
  { time_s; gflops = flops /. time_s /. 1e9; flops; bytes; efficiency }
