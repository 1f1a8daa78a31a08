open Tc_gpu
open Tc_expr

type reason =
  | Too_many_threads
  | Too_few_threads
  | Smem_overflow
  | Regs_overflow
  | Low_occupancy
  | Too_few_blocks
  | Uncoalesced_out
  | Uncoalesced_lhs
  | Uncoalesced_rhs

let reason_to_string = function
  | Too_many_threads -> "too many threads per block"
  | Too_few_threads -> "fewer threads than a warp"
  | Smem_overflow -> "shared memory overflow"
  | Regs_overflow -> "register overflow"
  | Low_occupancy -> "low occupancy"
  | Too_few_blocks -> "too few thread blocks"
  | Uncoalesced_out -> "uncoalesced output stores"
  | Uncoalesced_lhs -> "uncoalesced lhs loads"
  | Uncoalesced_rhs -> "uncoalesced rhs loads"

let reason_slug = function
  | Too_many_threads -> "too_many_threads"
  | Too_few_threads -> "too_few_threads"
  | Smem_overflow -> "smem_overflow"
  | Regs_overflow -> "regs_overflow"
  | Low_occupancy -> "low_occupancy"
  | Too_few_blocks -> "too_few_blocks"
  | Uncoalesced_out -> "uncoalesced_out"
  | Uncoalesced_lhs -> "uncoalesced_lhs"
  | Uncoalesced_rhs -> "uncoalesced_rhs"

let all_reasons =
  [
    Too_many_threads; Too_few_threads; Smem_overflow; Regs_overflow;
    Low_occupancy; Too_few_blocks; Uncoalesced_out; Uncoalesced_lhs;
    Uncoalesced_rhs;
  ]

let pp_reason fmt r = Format.pp_print_string fmt (reason_to_string r)

let min_occupancy = 0.25
let min_blocks_factor = 2
let min_fvi_tile = 4

(* sub-word scalars (fp16) still occupy whole registers *)
let regs_of_elems prec reg_elems =
  (max 1 (Precision.bytes prec / 4) * reg_elems) + 32

let regs_per_thread prec mapping =
  regs_of_elems prec (Mapping.reg_elems_per_thread mapping)

let smem_bytes prec mapping =
  Mapping.smem_elems mapping * Precision.bytes prec

let occupancy arch prec mapping =
  Occupancy.calculate arch
    {
      Occupancy.threads_per_block = Mapping.threads_per_block mapping;
      smem_per_block = smem_bytes prec mapping;
      regs_per_thread = min 255 (regs_per_thread prec mapping);
    }

(* Coalescing guard: the tile of a tensor's FVI must cover the whole (small)
   extent or be at least [min_fvi_tile] — [tile >= min extent min_fvi_tile],
   with the right-hand side precomputed in the {!checker}. *)

type klass =
  | Hardware
  | Perf_occupancy
  | Perf_blocks
  | Perf_coalescing_out
  | Perf_coalescing_in

let klass_of_reason = function
  | Too_many_threads | Smem_overflow | Regs_overflow -> Hardware
  | Low_occupancy | Too_few_threads -> Perf_occupancy
  | Too_few_blocks -> Perf_blocks
  | Uncoalesced_out -> Perf_coalescing_out
  | Uncoalesced_lhs | Uncoalesced_rhs -> Perf_coalescing_in

let klass_to_string = function
  | Hardware -> "hardware"
  | Perf_occupancy -> "occupancy"
  | Perf_blocks -> "blocks"
  | Perf_coalescing_out -> "coalescing-out"
  | Perf_coalescing_in -> "coalescing-in"

let all_classes =
  [ Hardware; Perf_occupancy; Perf_blocks; Perf_coalescing_out;
    Perf_coalescing_in ]

(* The constraint list of §IV-A with everything per-problem hoisted into a
   [checker]: FVI thresholds, the block floor and class membership. *)
type checker = {
  arch : Arch.t;
  out_fvi_min : int;  (* min (extent out_fvi) min_fvi_tile *)
  lhs_fvi_min : int;
  rhs_fvi_min : int;
  min_blocks : int;
  max_warps : float;  (* warps per SM, the occupancy denominator *)
  chk_hardware : bool;
  chk_occupancy : bool;
  chk_blocks : bool;
  chk_out : bool;
  chk_in : bool;
}

let checker_of_classes classes arch problem =
  let info = Problem.info problem in
  let fvi_min f = min (Problem.extent problem f) min_fvi_tile in
  {
    arch;
    out_fvi_min = fvi_min info.Classify.out_fvi;
    lhs_fvi_min = fvi_min info.Classify.lhs_fvi;
    rhs_fvi_min = fvi_min info.Classify.rhs_fvi;
    min_blocks = min_blocks_factor * arch.Arch.sms;
    max_warps =
      float_of_int (arch.Arch.max_threads_per_sm / arch.Arch.warp_size);
    chk_hardware = List.mem Hardware classes;
    chk_occupancy = List.mem Perf_occupancy classes;
    chk_blocks = List.mem Perf_blocks classes;
    chk_out = List.mem Perf_coalescing_out classes;
    chk_in = List.mem Perf_coalescing_in classes;
  }

let checker ?(performance = true) arch problem =
  checker_of_classes (if performance then all_classes else [ Hardware ])
    arch problem

(* [Occupancy.calculate]'s active warps per SM as int arithmetic: -1 for
   a request it calls [Invalid], 0 when one block over-subscribes the SM
   (limiter registers, shared memory or threads, occupancy 0). *)
let active_warps (a : Arch.t) ~threads ~smem ~regs =
  if
    threads <= 0
    || threads > a.max_threads_per_block
    || smem > a.smem_per_block
    || regs > a.regs_per_thread_max
    || smem < 0 || regs < 0
  then -1
  else
    let warps = (threads + a.warp_size - 1) / a.warp_size in
    let limit_threads = a.max_threads_per_sm / (warps * a.warp_size) in
    let limit_smem =
      if smem = 0 then a.max_blocks_per_sm else a.smem_per_sm / smem
    in
    let limit_regs =
      if regs = 0 then a.max_blocks_per_sm
      else a.regs_per_sm / (regs * warps * a.warp_size)
    in
    Int.min (Int.min limit_threads limit_smem)
      (Int.min limit_regs a.max_blocks_per_sm)
    * warps

(* Position in [all_reasons]: the int code [verdict] returns. *)
let reason_index = function
  | Too_many_threads -> 0
  | Too_few_threads -> 1
  | Smem_overflow -> 2
  | Regs_overflow -> 3
  | Low_occupancy -> 4
  | Too_few_blocks -> 5
  | Uncoalesced_out -> 6
  | Uncoalesced_lhs -> 7
  | Uncoalesced_rhs -> 8

(* The rules, in the order of the historical eagerly-built constraint
   list — first violation wins.  Int codes keep the hot loop free of
   allocation. *)
let verdict c ~threads ~smem ~regs ~blocks ~out_tile ~lhs_tile ~rhs_tile =
  let a = c.arch in
  if c.chk_hardware && threads > a.Arch.max_threads_per_block then
    reason_index Too_many_threads
  else if c.chk_hardware && smem > a.Arch.smem_per_block then
    reason_index Smem_overflow
  else
    let warps =
      if c.chk_hardware || c.chk_occupancy then
        active_warps a ~threads ~smem ~regs:(Int.min 255 regs)
      else 0
    in
    if c.chk_hardware && (regs > a.Arch.regs_per_thread_max || warps < 0)
    then reason_index Regs_overflow
    else if
      c.chk_occupancy
      && float_of_int (Int.max 0 warps) /. c.max_warps < min_occupancy
    then reason_index Low_occupancy
    else if c.chk_occupancy && threads < a.Arch.warp_size then
      reason_index Too_few_threads
    else if c.chk_blocks && blocks < c.min_blocks then
      reason_index Too_few_blocks
    else if c.chk_out && out_tile < c.out_fvi_min then
      reason_index Uncoalesced_out
    else if c.chk_in && lhs_tile < c.lhs_fvi_min then
      reason_index Uncoalesced_lhs
    else if c.chk_in && rhs_tile < c.rhs_fvi_min then
      reason_index Uncoalesced_rhs
    else -1

let reasons = Array.of_list all_reasons
let reason_of_index k = reasons.(k)
let num_reasons = Array.length reasons

type stats = {
  enumerated : int;
  kept : int;
  pruned : (reason * int) list;
  hardware_rejects : int;
  performance_rejects : int;
  relaxed : bool;
  relax_attempts : int;
}

let pruned_count s reason =
  Option.value ~default:0 (List.assoc_opt reason s.pruned)

(* Reject tallies are int arrays indexed by [reason_index]: cheap to
   bump in the streaming hot loop and trivially summed across the
   pipeline's parallel chunks.  [stats_of_tally] renders them in one
   canonical order — count-descending, declaration order on ties (the
   sort is stable) — so a tally produced chunk-by-chunk yields the exact
   [stats] value of a single sequential pass. *)
let stats_of_tally ~enumerated ~kept ~relaxed ~relax_attempts counts =
  let pruned =
    List.filter_map
      (fun r ->
        match counts.(reason_index r) with 0 -> None | n -> Some (r, n))
      all_reasons
    |> List.stable_sort (fun (_, a) (_, b) -> Int.compare b a)
  in
  let hardware_rejects =
    List.fold_left
      (fun acc (r, n) ->
        if klass_of_reason r = Hardware then acc + n else acc)
      0 pruned
  in
  let performance_rejects =
    List.fold_left (fun acc (_, n) -> acc + n) 0 pruned - hardware_rejects
  in
  {
    enumerated;
    kept;
    pruned;
    hardware_rejects;
    performance_rejects;
    relaxed;
    relax_attempts;
  }

let emit_stats_metrics stats =
  let open Tc_obs in
  Metrics.add (Metrics.counter "cogent.prune.enumerated")
    (float_of_int stats.enumerated);
  Metrics.add (Metrics.counter "cogent.prune.kept") (float_of_int stats.kept);
  if stats.relaxed then Metrics.incr (Metrics.counter "cogent.prune.relaxed");
  List.iter
    (fun (r, n) ->
      Metrics.add
        (Metrics.counter ("cogent.prune.rejected." ^ reason_slug r))
        (float_of_int n))
    stats.pruned

(* Relaxation ladder (§IV-A2 fallback): performance classes are dropped
   progressively; hardware constraints never are.  The input-coalescing
   rules go first: when both input FVIs are internal they are jointly
   unsatisfiable under Algorithm 2's packing, and the block-count /
   occupancy rules should survive that case. *)
let relax_attempts_classes =
  [
    [ Hardware; Perf_blocks; Perf_coalescing_out; Perf_coalescing_in ];
    [ Hardware; Perf_occupancy; Perf_blocks; Perf_coalescing_out ];
    [ Hardware; Perf_blocks; Perf_coalescing_out ];
    [ Hardware; Perf_coalescing_out; Perf_coalescing_in ];
    [ Hardware; Perf_coalescing_out ];
    [ Hardware ];
  ]

let pp_stats fmt s =
  Format.fprintf fmt
    "@[<v>%d enumerated, %d kept (%.1f%% pruned; %d hardware, %d performance)%s"
    s.enumerated s.kept
    (if s.enumerated = 0 then 0.0
     else
       100.0
       *. float_of_int (s.enumerated - s.kept)
       /. float_of_int s.enumerated)
    s.hardware_rejects s.performance_rejects
    (if s.relaxed then
       Printf.sprintf " [performance constraints relaxed after %d attempts]"
         s.relax_attempts
     else "");
  List.iter
    (fun (r, n) ->
      Format.fprintf fmt "@,  [%s] %a: %d"
        (klass_to_string (klass_of_reason r))
        pp_reason r n)
    s.pruned;
  Format.fprintf fmt "@]"
