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

(* The TAL_SH-faithful group orders, read off the input layouts: M and K
   in A's order, N in B's. *)
let faithful_orders info =
  let a = info.Classify.expr.Ast.lhs.Ast.indices
  and b = info.Classify.expr.Ast.rhs.Ast.indices in
  ( sublist_in info.Classify.lhs_externals a,
    sublist_in info.Classify.rhs_externals b,
    sublist_in info.Classify.internals a )

(* One lowering: each input is permuted to its [M@K] / [K@N] form unless
   its layout already presents the two groups contiguously in either order
   (cuBLAS's [op(A)]/[op(B)]), and the GEMM result ([C^T] when
   [swapped_output]) is permuted into C's layout.  Identity permutes are
   skipped. *)
let variant problem ~swapped_output (m_order, n_order, k_order) =
  let info = Problem.info problem in
  let a_idx = info.Classify.expr.Ast.lhs.Ast.indices in
  let b_idx = info.Classify.expr.Ast.rhs.Ast.indices in
  let permutes = ref [] in
  let need operand src dst =
    if not (list_eq src dst) then permutes := { operand; src; dst } :: !permutes
  in
  let op idx x y = list_eq idx (x @ y) || list_eq idx (y @ x) in
  if not (op a_idx m_order k_order) then need "A" a_idx (m_order @ k_order);
  if not (op b_idx k_order n_order) then need "B" b_idx (k_order @ n_order);
  need "C"
    (if swapped_output then n_order @ m_order else m_order @ n_order)
    info.Classify.externals;
  let prod = Sizes.product (Problem.sizes problem) in
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
  }

(* The search also tries M and N in C's order and K in B's. *)
let candidates problem =
  let info = Problem.info problem in
  let m0, n0, k0 = faithful_orders info in
  let b = info.Classify.expr.Ast.rhs.Ast.indices
  and c = info.Classify.externals in
  let m_orders = dedup [ m0; sublist_in info.Classify.lhs_externals c ]
  and n_orders = dedup [ n0; sublist_in info.Classify.rhs_externals c ]
  and k_orders = dedup [ k0; sublist_in info.Classify.internals b ] in
  List.concat_map
    (fun m ->
      List.concat_map
        (fun n ->
          List.concat_map
            (fun k ->
              List.map
                (fun swapped_output ->
                  variant problem ~swapped_output (m, n, k))
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

(* TAL_SH-faithful lowering: the search's first variant, with no search. *)
let faithful_plan problem =
  variant problem ~swapped_output:false (faithful_orders (Problem.info problem))

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
        (candidates problem)
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
