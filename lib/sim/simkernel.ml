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

(* One axis of a staged tile: [full] full tiles of size [tile] along the
   axis plus, when [rem > 0], one boundary tile of [rem] elements. *)
type axis = { tile : int; extent : int; full : int; rem : int }

let axis_of problem mapping i =
  let tile = Mapping.tile_of mapping i in
  let extent = Problem.extent problem i in
  { tile; extent; full = extent / tile; rem = extent mod tile }

(* Enumerate the full/partial boundary patterns of a tiled axis list.  Each
   pattern carries the number of staged instances with that shape and, per
   axis, the full axis descriptor, the in-range cut and a caller-chosen
   tag, preserving axis order. *)
let patterns axes =
  let rec go = function
    | [] -> [ (1.0, []) ]
    | (ax, tag) :: rest ->
        let tails = go rest in
        List.concat_map
          (fun (cnt, cuts) ->
            let full =
              if ax.full > 0 then
                [ (cnt *. float_of_int ax.full, (ax, ax.tile, tag) :: cuts) ]
              else []
            in
            let partial =
              if ax.rem > 0 then [ (cnt, (ax, ax.rem, tag) :: cuts) ] else []
            in
            full @ partial)
          tails
  in
  go axes

(* Transactions to load every staged instance of one input tensor, counted
   with the shared convention of {!Cogent.Txcount}: per boundary pattern,
   walk the padded cooperative sweep the emitted kernel executes (operand
   layout order, waves of [width] threads, out-of-range lanes masked) and
   weight by the number of (block-slice, step) instances with that shape.
   Blocks that differ only in external indices foreign to this tensor
   re-load the same slab (the foreign-block multiplier of the caller). *)
let load_transactions ~ept ~width problem mapping indices =
  let axes = List.map (fun i -> (axis_of problem mapping i, ())) indices in
  List.fold_left
    (fun acc (cnt, cuts) ->
      let _, rev_axes =
        List.fold_left
          (fun (stride, out) (ax, cut, ()) ->
            (stride * ax.extent, { Txcount.tile = ax.tile; cut; stride } :: out))
          (1, []) cuts
      in
      let tx_axes = Array.of_list (List.rev rev_axes) in
      acc +. (cnt *. float_of_int (Txcount.staged_sweep ~width ~ept tx_axes)))
    0.0 (patterns axes)

type ext_dim = Dtbx | Dtby | Dregx | Dregy | Dgrid

(* Transactions to store the output: one warp-synchronous wave of the full
   TBx*TBy thread grid per in-range register coordinate.  Threads enumerate
   the tbx bindings (fastest) then the tby bindings, address the output in
   its declared layout, and out-of-range threads are masked by the store
   guard — the same {!Cogent.Txcount} walk the interpreter measures. *)
let store_transactions ~ept problem mapping =
  let info = Problem.info problem in
  let dim_of i =
    let mem l = List.exists (fun b -> Index.equal b.Mapping.index i) l in
    if mem mapping.Mapping.tbx then Dtbx
    else if mem mapping.Mapping.tby then Dtby
    else if mem mapping.Mapping.regx then Dregx
    else if mem mapping.Mapping.regy then Dregy
    else Dgrid
  in
  let out_shape = Problem.out_shape problem in
  let width = Mapping.threads_per_block mapping in
  let axes =
    List.map
      (fun i -> (axis_of problem mapping i, (i, dim_of i)))
      info.Classify.externals
  in
  List.fold_left
    (fun acc (cnt, cuts) ->
      let cut_of i =
        match
          List.find_opt (fun (_, _, (j, _)) -> Index.equal i j) cuts
        with
        | Some (_, c, _) -> c
        | None -> 1
      in
      let thread_axes =
        List.map
          (fun b ->
            {
              Txcount.tile = b.Mapping.tile;
              cut = cut_of b.Mapping.index;
              stride = Shape.stride out_shape b.Mapping.index;
            })
          (mapping.Mapping.tbx @ mapping.Mapping.tby)
        |> Array.of_list
      in
      let wave = Txcount.staged_sweep ~width ~ept thread_axes in
      let reg_coords =
        List.fold_left
          (fun a (_, c, (_, d)) ->
            if d = Dregx || d = Dregy then a * c else a)
          1 cuts
      in
      acc +. (cnt *. float_of_int reg_coords *. float_of_int wave))
    0.0 (patterns axes)

(* DRAM-equivalent transactions for one input tensor: when the whole
   tensor fits comfortably in L2, only the first pass is served by DRAM
   and subsequent reloads stream from L2 at [l2_bw_ratio] times the DRAM
   rate. *)
let dram_equivalent (arch : Arch.t) prec problem indices trans =
  if arch.Arch.l2_bytes = 0 then trans
  else
    let bytes =
      float_of_int
        (List.fold_left (fun acc i -> acc * Problem.extent problem i) 1 indices
        * Precision.bytes prec)
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

let run (plan : Plan.t) =
  let arch = plan.Plan.arch in
  let prec = plan.Plan.precision in
  let problem = plan.Plan.problem in
  let mapping = plan.Plan.mapping in
  let tx = transactions_exact ~arch prec problem mapping in
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
  Plan.feasible_schemas ~arch:plan.Plan.arch ~precision:plan.Plan.precision
    plan.Plan.mapping
  |> List.map (fun sc -> (sc, run (Plan.with_schema sc plan)))
  |> race_of_lanes

let lane r sc = List.assoc sc r.lanes
