open Tc_tensor
open Tc_gpu
open Tc_expr
open Cogent

type bound = Memory | Compute | Latency

let pp_bound fmt b =
  Format.pp_print_string fmt
    (match b with
    | Memory -> "memory-bound"
    | Compute -> "compute-bound"
    | Latency -> "latency-bound")

type detail = {
  tx_lhs : float;
  tx_rhs : float;
  tx_out : float;
  mem_eff : float;
  comp_eff : float;
  warp_eff : float;
  ilp_eff : float;
  launch_s : float;
}

type result = {
  time_s : float;
  gflops : float;
  transactions : float;
  bytes : float;
  mem_time_s : float;
  compute_time_s : float;
  occupancy : float;
  concurrency : float;
  bound : bound;
  detail : detail;
}

(* ---- calibration constants (see EXPERIMENTS.md) ---- *)

(* Fraction of peak DRAM bandwidth a fully coalesced streaming kernel
   achieves. *)
let mem_base_eff = 0.82

(* Occupancy needed to saturate DRAM bandwidth / the FP pipelines. *)
let mem_sat_occupancy = 0.20
let comp_sat_occupancy = 0.15

(* Occupancy needed to saturate DRAM under the pipelined schemas: cp.async
   keeps a full tile of loads in flight per block without register staging,
   so far fewer resident warps cover the latency (Ampere tuning guide's
   motivation for async copies). *)
let mem_sat_occupancy_async = 0.10

(* Per-iteration loop overhead (instructions) charged to the inner
   outer-product sweep, on top of FMAs and SMEM loads. *)
let loop_overhead = 2.0


(* ---- exact transaction counting ---- *)

let ceil_div a b = (a + b - 1) / b

(* The tiled axes of one tensor, as arrays built once per call: along axis
   [k] of [extent.(k)] elements there are [full.(k)] full tiles of size
   [tile.(k)] and, when [rem.(k) > 0], one boundary tile of [rem.(k)]
   elements. *)
type axes = {
  tile : int array;
  extent : int array;
  full : int array;
  rem : int array;
}

let axes_of problem mapping indices =
  let idx = Array.of_list indices in
  let tile = Array.map (Mapping.tile_of mapping) idx in
  let extent = Array.map (Problem.extent problem) idx in
  {
    tile;
    extent;
    full = Array.mapi (fun k e -> e / tile.(k)) extent;
    rem = Array.mapi (fun k e -> e mod tile.(k)) extent;
  }

(* Element strides of a densely laid-out tensor with these axes, in their
   order (first axis contiguous). *)
let dense_strides ax =
  let n = Array.length ax.extent in
  let stride = Array.make n 1 in
  for k = 1 to n - 1 do
    stride.(k) <- stride.(k - 1) * ax.extent.(k - 1)
  done;
  stride

(* Visit every full/partial boundary pattern of [axes] — first axis
   fastest, full before partial — with the number of staged instances of
   that shape and, per axis, whether its cut is partial.  The count
   multiplies the full-tile counts from the last axis to the first. *)
let iter_patterns axes f =
  let n = Array.length axes.tile in
  let first k = axes.full.(k) = 0 in
  let partial = Array.init n first in
  if Array.for_all2 (fun p r -> (not p) || r > 0) partial axes.rem then begin
    let count () =
      let cnt = ref 1.0 in
      for k = n - 1 downto 0 do
        if not partial.(k) then cnt := !cnt *. float_of_int axes.full.(k)
      done;
      !cnt
    in
    let rec next k =
      if k = n then false
      else if (not partial.(k)) && axes.rem.(k) > 0 then begin
        partial.(k) <- true;
        true
      end
      else begin
        partial.(k) <- first k;
        next (k + 1)
      end
    in
    f (count ()) partial;
    while next 0 do
      f (count ()) partial
    done
  end

(* Transactions to load every staged instance of one input tensor, counted
   with the shared convention of {!Cogent.Txcount}: per boundary pattern,
   the padded cooperative sweep the emitted kernel executes (operand
   layout order, waves of [width] threads, out-of-range lanes masked),
   weighted by the number of (block-slice, step) instances with that
   shape.  Blocks that differ only in external indices foreign to this
   tensor re-load the same slab (the foreign-block multiplier of the
   caller). *)
let load_transactions ~ept ~width problem mapping indices =
  let ax = axes_of problem mapping indices in
  let n = Array.length ax.tile in
  let stride = dense_strides ax in
  let full =
    Array.mapi
      (fun k t -> { Txcount.tile = t; cut = t; stride = stride.(k) })
      ax.tile
  in
  let part = Array.mapi (fun k a -> { a with Txcount.cut = ax.rem.(k) }) full in
  let cur = Array.copy full in
  let acc = ref 0.0 in
  iter_patterns ax (fun cnt partial ->
      for k = 0 to n - 1 do
        cur.(k) <- (if partial.(k) then part.(k) else full.(k))
      done;
      acc := !acc +. (cnt *. float_of_int (Txcount.staged_sweep ~width ~ept cur)));
  !acc

(* Transactions to store the output: one warp-synchronous wave of the full
   TBx*TBy thread grid per in-range register coordinate.  Threads enumerate
   the tbx bindings (fastest) then the tby bindings, address the output in
   its declared layout, and out-of-range threads are masked by the store
   guard — the same {!Cogent.Txcount} walk the interpreter measures. *)
let store_transactions ~ept problem mapping =
  let externals = (Problem.info problem).Classify.externals in
  let ax = axes_of problem mapping externals in
  let bound l i = List.exists (fun b -> Index.equal b.Mapping.index i) l in
  let reg =
    Array.of_list
      (List.map
         (fun i ->
           (not (bound mapping.Mapping.tbx i || bound mapping.Mapping.tby i))
           && (bound mapping.Mapping.regx i || bound mapping.Mapping.regy i))
         externals)
  in
  let stride = dense_strides ax in
  let width = Mapping.threads_per_block mapping in
  let threads = Array.of_list (mapping.Mapping.tbx @ mapping.Mapping.tby) in
  (* Each thread axis is an external axis [ext.(t)] of the output and
     takes its cut and its stride (the externals are the output's indices
     in layout order). *)
  let rec position k i = function
    | [] -> raise Not_found
    | j :: tl -> if Index.equal i j then k else position (k + 1) i tl
  in
  let ext = Array.map (fun b -> position 0 b.Mapping.index externals) threads in
  let thread_axis cut t b =
    {
      Txcount.tile = b.Mapping.tile;
      cut = cut.(ext.(t));
      stride = stride.(ext.(t));
    }
  in
  let full = Array.mapi (thread_axis ax.tile) threads in
  let part = Array.mapi (thread_axis ax.rem) threads in
  let cur = Array.copy full in
  let acc = ref 0.0 in
  iter_patterns ax (fun cnt partial ->
      Array.iteri
        (fun t k ->
          cur.(t) <- (if partial.(k) then part.(t) else full.(t)))
        ext;
      let wave = Txcount.staged_sweep ~width ~ept cur in
      let reg_coords = ref 1 in
      Array.iteri
        (fun k r ->
          if r then
            reg_coords :=
              !reg_coords * if partial.(k) then ax.rem.(k) else ax.tile.(k))
        reg;
      acc := !acc +. (cnt *. float_of_int !reg_coords *. float_of_int wave));
  !acc

(* DRAM-equivalent transactions for one input tensor: when the whole
   tensor fits comfortably in L2, only the first pass is served by DRAM
   and subsequent reloads stream from L2 at [l2_bw_ratio] times the DRAM
   rate.  The byte size is formed in float, exact below 2^53, so a hostile
   extent cannot wrap it into a small tensor. *)
let dram_equivalent (arch : Arch.t) prec problem indices trans =
  if arch.Arch.l2_bytes = 0 then trans
  else
    let bytes =
      List.fold_left
        (fun acc i -> acc *. float_of_int (Problem.extent problem i))
        1.0 indices
      *. float_of_int (Precision.bytes prec)
    in
    if bytes > 0.8 *. float_of_int arch.Arch.l2_bytes then trans
    else
      let cold = bytes /. float_of_int arch.Arch.transaction_bytes in
      if trans <= cold then trans
      else cold +. ((trans -. cold) /. arch.Arch.l2_bw_ratio)

let transactions_exact ?arch prec problem mapping =
  let ept = Precision.elems_per_transaction prec in
  let info = Problem.info problem in
  let width = Mapping.threads_per_block mapping in
  let foreign_blocks indices =
    List.fold_left
      (fun acc i ->
        if List.exists (Index.equal i) indices then acc
        else
          acc * ceil_div (Problem.extent problem i) (Mapping.tile_of mapping i))
      1 info.Classify.externals
  in
  let lhs_idx = info.Classify.expr.Ast.lhs.Ast.indices in
  let rhs_idx = info.Classify.expr.Ast.rhs.Ast.indices in
  let lhs =
    load_transactions ~ept ~width problem mapping lhs_idx
    *. float_of_int (foreign_blocks lhs_idx)
  in
  let rhs =
    load_transactions ~ept ~width problem mapping rhs_idx
    *. float_of_int (foreign_blocks rhs_idx)
  in
  let out = store_transactions ~ept problem mapping in
  match arch with
  | None -> { Cost.lhs; rhs; out }
  | Some a ->
      {
        Cost.lhs = dram_equivalent a prec problem lhs_idx lhs;
        rhs = dram_equivalent a prec problem rhs_idx rhs;
        out;
      }

(* ---- timing ---- *)

(* The mapping's DRAM-equivalent traffic: it does not depend on the
   schema, so a race prices it once for all its lanes. *)
let traffic (plan : Plan.t) =
  transactions_exact ~arch:plan.Plan.arch plan.Plan.precision plan.Plan.problem
    plan.Plan.mapping

let run_with tx (plan : Plan.t) =
  let arch = plan.Plan.arch in
  let prec = plan.Plan.precision in
  let problem = plan.Plan.problem in
  let mapping = plan.Plan.mapping in
  let transactions = tx.Cost.lhs +. tx.Cost.rhs +. tx.Cost.out in
  let bytes = transactions *. float_of_int arch.Arch.transaction_bytes in
  let occ_result = Plan.occupancy plan in
  let occ = occ_result.Occupancy.occupancy in
  let blocks = Plan.num_blocks plan in
  let act = max 1 occ_result.Occupancy.active_blocks_per_sm in
  let concurrency =
    min 1.0 (float_of_int blocks /. float_of_int (act * arch.Arch.sms))
  in
  if occ <= 0.0 || Plan.regs_per_thread plan > arch.Arch.regs_per_thread_max
  then
    {
      time_s = infinity;
      gflops = 0.0;
      transactions;
      bytes;
      mem_time_s = infinity;
      compute_time_s = infinity;
      occupancy = 0.0;
      concurrency;
      bound = Latency;
      detail =
        {
          tx_lhs = tx.Cost.lhs;
          tx_rhs = tx.Cost.rhs;
          tx_out = tx.Cost.out;
          mem_eff = 0.0;
          comp_eff = 0.0;
          warp_eff = 0.0;
          ilp_eff = 0.0;
          launch_s = arch.Arch.kernel_launch_us *. 1e-6;
        };
    }
  else begin
    (* Blocks smaller than a warp waste lanes on every access and issue. *)
    let warp_eff =
      min 1.0
        (float_of_int (Plan.threads_per_block plan)
        /. float_of_int arch.Arch.warp_size)
    in
    let schema = plan.Plan.schema in
    let mem_sat =
      if Schema.pipelined schema then mem_sat_occupancy_async
      else mem_sat_occupancy
    in
    let mem_eff =
      mem_base_eff *. min 1.0 (occ /. mem_sat) *. concurrency *. warp_eff
    in
    let mem_time = bytes /. (arch.Arch.dram_bw_gbs *. 1e9 *. mem_eff) in
    (* Padded compute: every block runs its full loop structure. *)
    let rx = float_of_int (Mapping.size_regx mapping) in
    let ry = float_of_int (Mapping.size_regy mapping) in
    let padded_flops =
      2.0
      *. float_of_int (Plan.threads_per_block plan)
      *. rx *. ry
      *. float_of_int (Mapping.size_tbk mapping)
      *. float_of_int (Plan.num_steps plan)
      *. float_of_int blocks
    in
    (* Vectorized (128-bit) SMEM loads feed the outer product, so register
       staging charges (rx+ry)/2 issue slots against rx*ry FMAs. *)
    let ilp_eff =
      rx *. ry /. ((rx *. ry) +. ((rx +. ry) /. 2.0) +. loop_overhead)
    in
    (* MMA schemas issue whole fragment operations: the scalar-ILP model is
       replaced by the tensor-core rate discounted for operand staging. *)
    let comp_eff =
      (if Schema.mma schema then arch.Arch.mma_issue_eff
       else arch.Arch.fma_issue_eff *. ilp_eff)
      *. min 1.0 (occ /. comp_sat_occupancy)
      *. concurrency *. warp_eff
    in
    (* The emitted scalar kernels issue one FMA per element: fp16 operands
       are promoted to single precision (no half2 vectorization), so the
       SIMT ceiling for fp16 is the fp32 FMA rate, not the packed-half
       peak.  Only the MMA schema reaches the tensor-core rate. *)
    let peak =
      (if Schema.mma schema then Arch.tensor_gflops arch prec
       else
         match prec with
         | Precision.FP16 -> Arch.peak_gflops arch Precision.FP32
         | _ -> Arch.peak_gflops arch prec)
      *. 1e9
    in
    let compute_time = padded_flops /. (peak *. comp_eff) in
    let launch = arch.Arch.kernel_launch_us *. 1e-6 in
    let body = Float.max mem_time compute_time in
    let time = body +. launch in
    let bound =
      if launch > body then Latency
      else if mem_time >= compute_time then Memory
      else Compute
    in
    let result =
      {
        time_s = time;
        gflops = Problem.flops problem /. time /. 1e9;
        transactions;
        bytes;
        mem_time_s = mem_time;
        compute_time_s = compute_time;
        occupancy = occ;
        concurrency;
        bound;
        detail =
          {
            tx_lhs = tx.Cost.lhs;
            tx_rhs = tx.Cost.rhs;
            tx_out = tx.Cost.out;
            mem_eff;
            comp_eff;
            warp_eff;
            ilp_eff;
            launch_s = launch;
          };
      }
    in
    if Tc_obs.Trace.enabled () then
      Tc_obs.Trace.instant "sim.run"
        ~args:
          [
            ("gflops", Tc_obs.Trace.Float result.gflops);
            ("bound", Tc_obs.Trace.String (Format.asprintf "%a" pp_bound bound));
            ("mem_ms", Tc_obs.Trace.Float (mem_time *. 1e3));
            ("compute_ms", Tc_obs.Trace.Float (compute_time *. 1e3));
          ];
    result
  end

let run plan = run_with (traffic plan) plan
let gflops plan = (run plan).gflops

type race = {
  lanes : (Schema.t * result) list;
  classic : result;
  pipelined : (Schema.t * result) option;
  chosen : Schema.t * result;
}

let race_of_lanes lanes =
  let time (_, r) = r.time_s in
  let classic =
    match List.assoc_opt Schema.Classic lanes with
    | Some r -> r
    | None -> invalid_arg "Simkernel.race_of_lanes: no classic lane"
  in
  (* The earliest of equally fast pipelined lanes wins... *)
  let pipelined =
    List.filter (fun (sc, _) -> Schema.pipelined sc) lanes
    |> List.fold_left
         (fun best l ->
           match best with Some b when time b <= time l -> best | _ -> Some l)
         None
  in
  (* ...and classic wins a tie against it. *)
  let chosen =
    match pipelined with
    | Some l when time l < classic.time_s -> l
    | _ -> (Schema.Classic, classic)
  in
  { lanes; classic; pipelined; chosen }

let race (plan : Plan.t) =
  let tx = traffic plan in
  Plan.feasible_schemas ~arch:plan.Plan.arch ~precision:plan.Plan.precision
    plan.Plan.mapping
  |> List.map (fun sc -> (sc, run_with tx (Plan.with_schema sc plan)))
  |> race_of_lanes

let lane r sc = List.assoc sc r.lanes
