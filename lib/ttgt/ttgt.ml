open Tc_tensor
open Tc_expr

type permute_step = { operand : string; src : Index.t list; dst : Index.t list }

type t = {
  problem : Problem.t;
  m_order : Index.t list;
  n_order : Index.t list;
  k_order : Index.t list;
  m : int;
  n : int;
  k : int;
  swapped_output : bool;
  permutes : permute_step list;
}

type estimate = {
  time_s : float;
  gflops : float;
  transpose_time_s : float;
  gemm_time_s : float;
  gemm : Gemm_model.result;
  transpose_bytes : float;
}

let list_eq a b =
  List.length a = List.length b && List.for_all2 Index.equal a b

(* Keep only elements of [order] that appear in [universe]. *)
let sublist_in universe order =
  List.filter (fun i -> List.exists (Index.equal i) universe) order

let dedup l =
  let rec go seen = function
    | [] -> []
    | x :: rest ->
        if List.exists (list_eq x) seen then go seen rest
        else x :: go (x :: seen) rest
  in
  go [] l

let candidate_plans problem =
  let info = Problem.info problem in
  let a_idx = info.Classify.expr.Ast.lhs.Ast.indices in
  let b_idx = info.Classify.expr.Ast.rhs.Ast.indices in
  let c_idx = info.Classify.externals in
  let m_orders =
    dedup
      [
        sublist_in info.Classify.lhs_externals a_idx;
        sublist_in info.Classify.lhs_externals c_idx;
      ]
  in
  let n_orders =
    dedup
      [
        sublist_in info.Classify.rhs_externals b_idx;
        sublist_in info.Classify.rhs_externals c_idx;
      ]
  in
  let k_orders =
    dedup
      [
        sublist_in info.Classify.internals a_idx;
        sublist_in info.Classify.internals b_idx;
      ]
  in
  let sizes = Problem.sizes problem in
  let prod = Sizes.product sizes in
  List.concat_map
    (fun m_order ->
      List.concat_map
        (fun n_order ->
          List.concat_map
            (fun k_order ->
              List.map
                (fun swapped_output ->
                  let permutes = ref [] in
                  let need operand src dst =
                    if not (list_eq src dst) then
                      permutes := { operand; src; dst } :: !permutes
                  in
                  (* A must present as [M@K] or [K@M] (cuBLAS op(A)). *)
                  if
                    not
                      (list_eq a_idx (m_order @ k_order)
                      || list_eq a_idx (k_order @ m_order))
                  then need "A" a_idx (m_order @ k_order);
                  if
                    not
                      (list_eq b_idx (k_order @ n_order)
                      || list_eq b_idx (n_order @ k_order))
                  then need "B" b_idx (k_order @ n_order);
                  let gemm_c =
                    if swapped_output then n_order @ m_order
                    else m_order @ n_order
                  in
                  need "C" gemm_c c_idx;
                  {
                    problem;
                    m_order;
                    n_order;
                    k_order;
                    m = prod m_order;
                    n = prod n_order;
                    k = prod k_order;
                    swapped_output;
                    permutes = List.rev !permutes;
                  })
                [ false; true ])
            k_orders)
        n_orders)
    m_orders

(* Host-side runtime overhead of the TAL_SH framework per contraction call
   (tensor bookkeeping, argument marshalling, stream management). *)
let talsh_overhead_s = 150e-6

(* Span arguments are built only under an installed trace, as
   [Simkernel.price] does: serve estimates once per fitting request. *)
let estimate arch prec t =
  let traced = Tc_obs.Trace.enabled () in
  Tc_obs.Trace.with_span "ttgt.estimate"
    ~args:
      (if traced then
         [ ("permutes", Tc_obs.Trace.Int (List.length t.permutes)) ]
       else [])
  @@ fun () ->
  let sizes = Problem.sizes t.problem in
  let transposes =
    List.map
      (fun p -> Transpose_model.run arch prec ~sizes ~src:p.src ~dst:p.dst)
      t.permutes
  in
  let transpose_time_s =
    List.fold_left (fun acc r -> acc +. r.Transpose_model.time_s) 0.0 transposes
  in
  let transpose_bytes =
    List.fold_left (fun acc r -> acc +. r.Transpose_model.bytes) 0.0 transposes
  in
  let m, n = if t.swapped_output then (t.n, t.m) else (t.m, t.n) in
  let gemm = Gemm_model.run arch prec ~m ~n ~k:t.k in
  let gemm_time_s = gemm.Gemm_model.time_s in
  let time_s = transpose_time_s +. gemm_time_s +. talsh_overhead_s in
  if traced then
    Tc_obs.Trace.add_args
      [
        ("transpose_ms", Tc_obs.Trace.Float (transpose_time_s *. 1e3));
        ("gemm_ms", Tc_obs.Trace.Float (gemm_time_s *. 1e3));
        ( "transpose_share",
          Tc_obs.Trace.Float
            (if time_s > 0.0 then transpose_time_s /. time_s else 0.0) );
      ];
  {
    time_s;
    gflops = Problem.flops t.problem /. time_s /. 1e9;
    transpose_time_s;
    gemm_time_s;
    gemm;
    transpose_bytes;
  }

(* TAL_SH-faithful lowering: operands are permuted to the framework's
   canonical [M@K] / [K@N] forms derived from the *input* layouts, and the
   GEMM result is permuted into C's layout.  Identity permutes are still
   skipped, but no search for a cheaper variant happens. *)
let faithful_plan problem =
  let info = Problem.info problem in
  let a_idx = info.Classify.expr.Ast.lhs.Ast.indices in
  let b_idx = info.Classify.expr.Ast.rhs.Ast.indices in
  let c_idx = info.Classify.externals in
  let m_order = sublist_in info.Classify.lhs_externals a_idx in
  let k_order = sublist_in info.Classify.internals a_idx in
  let n_order = sublist_in info.Classify.rhs_externals b_idx in
  let permutes = ref [] in
  let need operand src dst =
    if not (list_eq src dst) then permutes := { operand; src; dst } :: !permutes
  in
  if
    not
      (list_eq a_idx (m_order @ k_order) || list_eq a_idx (k_order @ m_order))
  then need "A" a_idx (m_order @ k_order);
  if
    not
      (list_eq b_idx (k_order @ n_order) || list_eq b_idx (n_order @ k_order))
  then need "B" b_idx (k_order @ n_order);
  need "C" (m_order @ n_order) c_idx;
  let prod = Sizes.product (Problem.sizes problem) in
  {
    problem;
    m_order;
    n_order;
    k_order;
    m = prod m_order;
    n = prod n_order;
    k = prod k_order;
    swapped_output = false;
    permutes = List.rev !permutes;
  }

let plan_ctx (ctx : Cogent.Ctx.t) ?(optimize = false) problem =
  Tc_obs.Trace.with_span "ttgt.plan"
    ~args:
      (if Tc_obs.Trace.enabled () then
         [ ("optimize", Tc_obs.Trace.Bool optimize) ]
       else [])
  @@ fun () ->
  Tc_obs.Metrics.incr (Tc_obs.Metrics.counter "cogent.ttgt.plans");
  if not optimize then faithful_plan problem
  else
    let candidates = candidate_plans problem in
    let score t = (estimate ctx.Cogent.Ctx.arch ctx.Cogent.Ctx.precision t).time_s in
    (* Estimation is pure, so variants score on the domain pool; the
       index-ordered argmin with a strict [<] keeps the earliest variant
       on ties, exactly like the sequential fold it replaces (which also
       re-scored the incumbent every step — each variant now costs one
       estimate instead of two). *)
    match
      Tc_par.Pool.fold_best
        ~better:(fun (_, s) (_, bs) -> s < bs)
        (fun t -> (t, score t))
        candidates
    with
    | Some (t, _) -> t
    | None -> invalid_arg "Ttgt.plan: no candidates (unreachable)"

let run_ctx (ctx : Cogent.Ctx.t) ?optimize problem =
  estimate ctx.Cogent.Ctx.arch ctx.Cogent.Ctx.precision
    (plan_ctx ctx ?optimize problem)

let execute ?optimize problem ~lhs ~rhs =
  let info = Problem.info problem in
  let a, b = if info.Classify.swapped then (rhs, lhs) else (lhs, rhs) in
  (* The optimized variant choice is device-independent in practice, so
     the functional path plans under the default context. *)
  let t = plan_ctx Cogent.Ctx.default ?optimize problem in
  (* Functionally we always materialize the canonical M@K / K@N / M@N
     forms; the *model* only charges for the permutes the plan records. *)
  let ta = Permute.permute ~dst_indices:(t.m_order @ t.k_order) a in
  let tb = Permute.permute ~dst_indices:(t.k_order @ t.n_order) b in
  let tc_shape =
    Shape.of_indices ~sizes:(Problem.sizes problem) (t.m_order @ t.n_order)
  in
  let tc = Dense.create tc_shape in
  Matmul.gemm ~m:t.m ~n:t.n ~k:t.k ~a:(Dense.unsafe_data ta)
    ~b:(Dense.unsafe_data tb) ~c:(Dense.unsafe_data tc);
  Permute.permute ~dst_indices:info.Classify.externals tc
