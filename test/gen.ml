(* Shared QCheck generators: random (but always well-formed) binary tensor
   contractions with small extents, used to cross-validate every execution
   path against the reference contraction. *)

open Tc_tensor
open Tc_expr

type case = {
  problem : Problem.t;
  lhs : Dense.t;  (* as written in the expression *)
  rhs : Dense.t;
}

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = QCheck.Gen.int_bound i st in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* A random contraction: 1-2 lhs externals, 0-2 rhs externals, 0-2
   internals (at least 3 indices total keeps it interesting), random
   layouts, random extents in 1..6, random lhs/rhs order (to exercise the
   canonicalization swap). *)
let contraction_gen : (Ast.t * Sizes.t) QCheck.Gen.t =
 fun st ->
  let open QCheck.Gen in
  let n_lhs_ext = 1 + int_bound 1 st in
  let n_rhs_ext = int_bound 2 st in
  let n_int = int_bound 2 st in
  let n_int = if n_rhs_ext = 0 && n_int = 0 then 1 else n_int in
  let total = n_lhs_ext + n_rhs_ext + n_int in
  let letters = List.init total (fun k -> Char.chr (Char.code 'a' + k)) in
  let letters = shuffle st letters in
  let rec take n = function
    | [] -> ([], [])
    | l when n = 0 -> ([], l)
    | x :: rest ->
        let a, b = take (n - 1) rest in
        (x :: a, b)
  in
  let lhs_ext, rest = take n_lhs_ext letters in
  let rhs_ext, internals = take n_rhs_ext rest in
  let out = shuffle st (lhs_ext @ rhs_ext) in
  let lhs = shuffle st (lhs_ext @ internals) in
  let rhs = shuffle st (rhs_ext @ internals) in
  let sizes =
    Sizes.of_list (List.map (fun i -> (i, 1 + int_bound 5 st)) letters)
  in
  (* Randomly present the inputs swapped so that the output FVI sometimes
     lives in the rhs. *)
  let lhs, rhs = if bool st then (lhs, rhs) else (rhs, lhs) in
  let ast =
    Ast.make
      ~out:{ Ast.name = "C"; indices = out }
      ~lhs:{ Ast.name = "A"; indices = lhs }
      ~rhs:{ Ast.name = "B"; indices = rhs }
  in
  (ast, sizes)

let case_gen : case QCheck.Gen.t =
 fun st ->
  let ast, sizes = contraction_gen st in
  let problem = Problem.make_exn ast sizes in
  let info = Problem.info problem in
  let orig = info.Classify.original in
  let seed = QCheck.Gen.int_bound 10_000 st in
  let shape_of indices = Shape.of_indices ~sizes indices in
  let lhs = Dense.random ~seed (shape_of orig.Ast.lhs.Ast.indices) in
  let rhs = Dense.random ~seed:(seed + 1) (shape_of orig.Ast.rhs.Ast.indices) in
  { problem; lhs; rhs }

let case_print c =
  Format.asprintf "%a" Problem.pp c.problem

let case_arbitrary = QCheck.make ~print:case_print case_gen

(* Reference result for a case; Contract_ref is insensitive to operand
   order, so the original (as-written) order is fine. *)
let reference c =
  let info = Problem.info c.problem in
  Contract_ref.contract ~out_indices:info.Classify.externals c.lhs c.rhs

(* The plan [Cogent.Driver.run_exn] selects for [problem] under [ctx]. *)
let plan_of ctx problem =
  (Cogent.Driver.run_exn ctx problem).Cogent.Driver.plan

(* The same mapping on A100/fp16 under every schema the planner admits for
   it (classic, pipelined, pipelined-MMA), so the execution and counting
   properties see each kernel schema the driver can pick. *)
let schema_plans problem mapping =
  let arch = Tc_gpu.Arch.a100 and precision = Tc_gpu.Precision.FP16 in
  let plan = Cogent.Plan.make ~problem ~mapping ~arch ~precision in
  List.map
    (fun schema -> Cogent.Plan.with_schema schema plan)
    (Cogent.Plan.feasible_schemas ~arch ~precision mapping)

(* Oracle for [Cogent.Txcount.staged_sweep]: the convention walked one
   padded-tile position at a time (odometer over every axis, first axis
   fastest), carrying the element address and the number of out-of-range
   coordinates along. *)
let staged_sweep_ref ~width ~ept (axes : Cogent.Txcount.axis array) =
  let open Cogent.Txcount in
  let n = Array.length axes in
  let elems = Array.fold_left (fun a ax -> a * ax.tile) 1 axes in
  if elems <= 0 then 0
  else begin
    let width = max 1 width in
    let ept = max 1 ept in
    let locals = Array.make n 0 in
    let bad = ref 0 in
    Array.iter (fun ax -> if ax.cut <= 0 then incr bad) axes;
    let addr = ref 0 in
    let tx = ref 0 in
    let seg_len = ref 0 in
    let seg_prev = ref 0 in
    let close_segment () =
      if !seg_len > 0 then begin
        tx := !tx + ((!seg_len + ept - 1) / ept);
        seg_len := 0
      end
    in
    for pos = 0 to elems - 1 do
      if pos mod width = 0 then close_segment ();
      if !bad = 0 then
        if !seg_len > 0 && !addr = !seg_prev + 1 then begin
          incr seg_len;
          seg_prev := !addr
        end
        else begin
          close_segment ();
          seg_len := 1;
          seg_prev := !addr
        end;
      if pos < elems - 1 then begin
        let k = ref 0 in
        while locals.(!k) = axes.(!k).tile - 1 do
          let ax = axes.(!k) in
          if ax.cut > 0 && ax.cut < ax.tile then decr bad;
          addr := !addr - ((ax.tile - 1) * ax.stride);
          locals.(!k) <- 0;
          incr k
        done;
        let ax = axes.(!k) in
        locals.(!k) <- locals.(!k) + 1;
        addr := !addr + ax.stride;
        if locals.(!k) = ax.cut then incr bad
      end
    done;
    close_segment ();
    !tx
  end

(* Inputs of one [Cogent.Prune.verdict] call: a device, a class set, a
   problem (for the FVI thresholds) and a candidate's sizes.  [kind]
   names what the occupancy request was built to be, so the property can
   check the generator really reaches each region. *)
type rule_kind =
  | Any_request
  | Valid_request
  | Invalid_request
  | Zero_fit_request

type rule_case = {
  r_arch : Tc_gpu.Arch.t;
  r_classes : Cogent.Prune.klass list;
  r_problem : Problem.t;
  r_kind : rule_kind;
  r_threads : int;
  r_smem : int;  (* bytes *)
  r_regs : int;  (* registers per thread, unclamped *)
  r_blocks : int;
  r_out_tile : int;
  r_lhs_tile : int;
  r_rhs_tile : int;
}

let rule_case_gen : rule_case QCheck.Gen.t =
 fun st ->
  let open QCheck.Gen in
  let arch =
    oneofl Tc_gpu.Arch.[ p100; v100; a100; h100 ] st
  in
  let classes =
    List.filter
      (fun _ -> bool st)
      Cogent.Prune.
        [ Hardware; Perf_occupancy; Perf_blocks; Perf_coalescing_out;
          Perf_coalescing_in ]
  in
  let ast, sizes = contraction_gen st in
  let problem = Problem.make_exn ast sizes in
  let a = arch in
  let kind =
    oneofl [ Any_request; Valid_request; Invalid_request; Zero_fit_request ] st
  in
  (* Within limits, with shared memory and registers often placed next to
     the value at which one more or one fewer block fits on the SM. *)
  let near_limit total per_block =
    let n = 1 + int_bound 8 st in
    max 0 ((total / (max 1 per_block * n)) + int_range (-1) 1 st)
  in
  let threads, smem, regs =
    match kind with
    | Any_request ->
        ( int_range (-1) (2 * a.Tc_gpu.Arch.max_threads_per_block) st,
          int_range (-1) (2 * a.Tc_gpu.Arch.smem_per_block) st,
          int_range (-1) 300 st )
    | Valid_request ->
        let threads = int_range 1 a.Tc_gpu.Arch.max_threads_per_block st in
        let lanes =
          (threads + a.Tc_gpu.Arch.warp_size - 1) / a.Tc_gpu.Arch.warp_size
          * a.Tc_gpu.Arch.warp_size
        in
        let smem =
          if bool st then int_range 0 a.Tc_gpu.Arch.smem_per_block st
          else min a.Tc_gpu.Arch.smem_per_block (near_limit a.Tc_gpu.Arch.smem_per_sm 1)
        in
        let regs =
          if bool st then int_range 0 a.Tc_gpu.Arch.regs_per_thread_max st
          else
            min a.Tc_gpu.Arch.regs_per_thread_max
              (near_limit a.Tc_gpu.Arch.regs_per_sm lanes)
        in
        (threads, smem, regs)
    | Invalid_request -> (
        let threads = int_range 1 a.Tc_gpu.Arch.max_threads_per_block st in
        let smem = int_range 0 a.Tc_gpu.Arch.smem_per_block st in
        let regs = int_range 0 a.Tc_gpu.Arch.regs_per_thread_max st in
        match int_bound 4 st with
        | 0 -> (int_range (-3) 0 st, smem, regs)
        | 1 ->
            ( int_range (a.Tc_gpu.Arch.max_threads_per_block + 1) 4096 st,
              smem, regs )
        | 2 ->
            ( threads,
              int_range (a.Tc_gpu.Arch.smem_per_block + 1)
                (2 * a.Tc_gpu.Arch.smem_per_block) st,
              regs )
        | 3 -> (threads, int_range (-64) (-1) st, regs)
        | _ -> (threads, smem, int_range (-8) (-1) st))
    | Zero_fit_request ->
        (* Valid, but one block's registers exceed the SM's file. *)
        let threads = int_range 512 a.Tc_gpu.Arch.max_threads_per_block st in
        let lanes =
          (threads + a.Tc_gpu.Arch.warp_size - 1) / a.Tc_gpu.Arch.warp_size
          * a.Tc_gpu.Arch.warp_size
        in
        ( threads,
          int_range 0 a.Tc_gpu.Arch.smem_per_block st,
          int_range ((a.Tc_gpu.Arch.regs_per_sm / lanes) + 1)
            a.Tc_gpu.Arch.regs_per_thread_max st )
  in
  {
    r_arch = arch;
    r_classes = classes;
    r_problem = problem;
    r_kind = kind;
    r_threads = threads;
    r_smem = smem;
    r_regs = regs;
    r_blocks = int_range 0 (4 * a.Tc_gpu.Arch.sms) st;
    r_out_tile = int_range 1 8 st;
    r_lhs_tile = int_range 1 8 st;
    r_rhs_tile = int_range 1 8 st;
  }

let rule_case_print c =
  Format.asprintf
    "%s [%s] %a threads=%d smem=%d regs=%d blocks=%d tiles=%d/%d/%d"
    c.r_arch.Tc_gpu.Arch.name
    (String.concat ","
       (List.map Cogent.Prune.klass_to_string c.r_classes))
    Problem.pp c.r_problem c.r_threads c.r_smem c.r_regs c.r_blocks
    c.r_out_tile c.r_lhs_tile c.r_rhs_tile

let rule_case_arbitrary = QCheck.make ~print:rule_case_print rule_case_gen

(* Oracle for [Cogent.Prune.verdict]: the §IV-A constraint list written
   out eagerly, with occupancy from [Occupancy.calculate] — the form the
   rules had before they became one int function. *)
let verdict_ref c =
  let open Cogent.Prune in
  let a = c.r_arch in
  let info = Problem.info c.r_problem in
  let has k = List.mem k c.r_classes in
  let fvi_min f = min (Problem.extent c.r_problem f) min_fvi_tile in
  let occ =
    Tc_gpu.Occupancy.calculate a
      {
        Tc_gpu.Occupancy.threads_per_block = c.r_threads;
        smem_per_block = c.r_smem;
        regs_per_thread = min 255 c.r_regs;
      }
  in
  let rules =
    [
      ( has Hardware && c.r_threads > a.Tc_gpu.Arch.max_threads_per_block,
        Too_many_threads );
      (has Hardware && c.r_smem > a.Tc_gpu.Arch.smem_per_block, Smem_overflow);
      ( has Hardware
        && not
             (c.r_regs <= a.Tc_gpu.Arch.regs_per_thread_max
             && occ.Tc_gpu.Occupancy.limiter <> Tc_gpu.Occupancy.Invalid),
        Regs_overflow );
      ( has Perf_occupancy && occ.Tc_gpu.Occupancy.occupancy < min_occupancy,
        Low_occupancy );
      ( has Perf_occupancy && c.r_threads < a.Tc_gpu.Arch.warp_size,
        Too_few_threads );
      ( has Perf_blocks && c.r_blocks < min_blocks_factor * a.Tc_gpu.Arch.sms,
        Too_few_blocks );
      ( has Perf_coalescing_out && c.r_out_tile < fvi_min info.Classify.out_fvi,
        Uncoalesced_out );
      ( has Perf_coalescing_in && c.r_lhs_tile < fvi_min info.Classify.lhs_fvi,
        Uncoalesced_lhs );
      ( has Perf_coalescing_in && c.r_rhs_tile < fvi_min info.Classify.rhs_fvi,
        Uncoalesced_rhs );
    ]
  in
  (occ, Option.map snd (List.find_opt fst rules))

(* Fixed seed: property tests must be reproducible across runs. *)
let to_alcotest t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t
