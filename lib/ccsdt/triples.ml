open Tc_tensor
open Tc_expr

type system = {
  nh : int;
  np : int;
  eps_occ : float array;
  eps_vir : float array;
  (* Base operand data; every variant of a family reinterprets the same
     flat array under its own index labels. *)
  t2_sd1 : float array;  (* [h7, p, p, h] *)
  v2_sd1 : float array;  (* [h, h, p, h7] *)
  t2_sd2 : float array;  (* [p7, p, h, h] *)
  v2_sd2 : float array;  (* [p, p, p7, h] *)
}

let make ?(seed = 7) ~nh ~np () =
  if nh < 2 || np < 2 then
    invalid_arg "Triples.make: need at least 2 occupied and 2 virtual orbitals";
  let st = Random.State.make [| seed; nh; np |] in
  let rand n = Array.init n (fun _ -> Random.State.float st 0.2 -. 0.1) in
  {
    nh;
    np;
    (* a plausible closed-shell spectrum: occupied below the gap, virtual
       above it *)
    eps_occ =
      Array.init nh (fun i -> -2.0 +. (1.0 *. float_of_int i /. float_of_int nh));
    eps_vir =
      Array.init np (fun i -> 0.5 +. (2.0 *. float_of_int i /. float_of_int np));
    t2_sd1 = rand (nh * np * np * nh);
    v2_sd1 = rand (nh * nh * np * nh);
    t2_sd2 = rand (np * np * nh * nh);
    v2_sd2 = rand (np * np * np * nh);
  }

let nh s = s.nh
let np s = s.np

type method_ = Reference | Cogent_plans | Ttgt_pipeline

let method_name = function
  | Reference -> "reference einsum"
  | Cogent_plans -> "COGENT plans (interpreter)"
  | Ttgt_pipeline -> "TTGT pipeline"

(* Suite letters a,b,c are occupied; d,e,f virtual; g is occupied for SD1
   and virtual for SD2. *)
let extent_of s ~g_occupied i =
  match i with
  | 'a' | 'b' | 'c' -> s.nh
  | 'd' | 'e' | 'f' -> s.np
  | 'g' -> if g_occupied then s.nh else s.np
  | _ -> invalid_arg "Triples: unexpected index"

let sizes_of s ~g_occupied indices =
  Sizes.of_list (List.map (fun i -> (i, extent_of s ~g_occupied i)) indices)

(* Reinterpret base flat data under a variant's index labels. *)
let view s ~g_occupied data indices =
  let shape =
    Shape.of_indices
      ~sizes:(sizes_of s ~g_occupied indices)
      indices
  in
  let t = Dense.create shape in
  if Array.length data <> Dense.numel t then
    invalid_arg "Triples: base tensor volume mismatch";
  Array.blit data 0 (Dense.unsafe_data t) 0 (Array.length data);
  t

let entry_problem s (e : Tc_tccg.Suite.entry) ~g_occupied =
  match
    Problem.of_string e.Tc_tccg.Suite.expr
      ~sizes:
        (List.map
           (fun (i, _) -> (i, extent_of s ~g_occupied i))
           e.Tc_tccg.Suite.sizes)
  with
  | Ok p -> p
  | Error m -> invalid_arg ("Triples: " ^ m)

let operand_views s (e : Tc_tccg.Suite.entry) ~g_occupied =
  let problem = entry_problem s e ~g_occupied in
  let info = Problem.info problem in
  let orig = info.Classify.original in
  let t2_data, v2_data =
    if g_occupied then (s.t2_sd1, s.v2_sd1) else (s.t2_sd2, s.v2_sd2)
  in
  let lhs = view s ~g_occupied t2_data orig.Ast.lhs.Ast.indices in
  let rhs = view s ~g_occupied v2_data orig.Ast.rhs.Ast.indices in
  (problem, lhs, rhs)

let contract_with ~method_ problem ~lhs ~rhs =
  match method_ with
  | Reference ->
      Contract_ref.contract
        ~out_indices:(Problem.info problem).Classify.externals lhs rhs
  | Cogent_plans ->
      let r = Cogent.Driver.run_exn Cogent.Ctx.default problem in
      Cogent.Interp.execute r.Cogent.Driver.plan ~lhs ~rhs
  | Ttgt_pipeline -> Tc_ttgt.Ttgt.execute problem ~lhs ~rhs

let t3 s ~method_ =
  let out_shape =
    Shape.of_indices
      ~sizes:(sizes_of s ~g_occupied:true (Index.list_of_string "abcdef"))
      (Index.list_of_string "abcdef")
  in
  let acc = Dense.create out_shape in
  let accumulate sign (e : Tc_tccg.Suite.entry) ~g_occupied =
    let problem, lhs, rhs = operand_views s e ~g_occupied in
    let contribution = contract_with ~method_ problem ~lhs ~rhs in
    let a = Dense.unsafe_data acc and c = Dense.unsafe_data contribution in
    Array.iteri (fun k v -> a.(k) <- a.(k) +. (sign *. v)) c
  in
  List.iter
    (accumulate 1.0 ~g_occupied:true)
    (Tc_tccg.Suite.by_group Tc_tccg.Suite.Ccsd_t_sd1);
  List.iter
    (accumulate (-1.0) ~g_occupied:false)
    (Tc_tccg.Suite.by_group Tc_tccg.Suite.Ccsd_t_sd2);
  acc

let energy s t3 =
  let shape = Dense.shape t3 in
  let expected =
    Shape.make
      [ ('a', s.nh); ('b', s.nh); ('c', s.nh);
        ('d', s.np); ('e', s.np); ('f', s.np) ]
  in
  if not (Shape.equal shape expected) then
    invalid_arg "Triples.energy: t3 has the wrong shape";
  let total = ref 0.0 in
  Dense.iteri t3 (fun pos v ->
      let d =
        s.eps_occ.(pos.(0)) +. s.eps_occ.(pos.(1)) +. s.eps_occ.(pos.(2))
        -. s.eps_vir.(pos.(3)) -. s.eps_vir.(pos.(4)) -. s.eps_vir.(pos.(5))
      in
      total := !total +. (v *. v /. d));
  !total

let correction ?(method_ = Reference) s = energy s (t3 s ~method_)

type sweep = { strategy : string; time_s : float; gflops : float }

let sweep_estimate arch prec ~nh ~np =
  let dummy = make ~nh ~np () in
  let simulate plan = (Tc_sim.Simkernel.run plan).Tc_sim.Simkernel.gflops in
  let entries =
    List.map
      (fun e -> (entry_problem dummy e ~g_occupied:true, e))
      (Tc_tccg.Suite.by_group Tc_tccg.Suite.Ccsd_t_sd1)
    @ List.map
        (fun e -> (entry_problem dummy e ~g_occupied:false, e))
        (Tc_tccg.Suite.by_group Tc_tccg.Suite.Ccsd_t_sd2)
  in
  let flops =
    List.fold_left (fun acc (p, _) -> acc +. Problem.flops p) 0.0 entries
  in
  (* Per-entry estimates are pure, so they fan out on the domain pool;
     summation stays in entry order, keeping the totals bit-identical at
     any job count. *)
  let time strategy =
    Tc_par.Pool.map
      (fun (p, _) ->
        match strategy with
        | `Cogent ->
            let ctx =
              Cogent.Ctx.make ~arch ~precision:prec ~measure:simulate ()
            in
            (Tc_sim.Simkernel.run (Cogent.Driver.run_exn ctx p).Cogent.Driver.plan)
              .Tc_sim.Simkernel.time_s
        | `Nwchem ->
            (Tc_sim.Simkernel.run (Tc_nwchem.Nwgen.plan ~arch ~precision:prec p))
              .Tc_sim.Simkernel.time_s
        | `Ttgt ->
            (Tc_ttgt.Ttgt.run_ctx
               (Cogent.Ctx.make ~arch ~precision:prec ())
               p)
              .Tc_ttgt.Ttgt.time_s)
      entries
    |> List.fold_left ( +. ) 0.0
  in
  [ ("COGENT", `Cogent); ("NWChem-style", `Nwchem); ("TAL_SH-style", `Ttgt) ]
  |> List.map (fun (strategy, tag) ->
         let t = time tag in
         { strategy; time_s = t; gflops = flops /. t /. 1e9 })
  |> List.sort (fun a b -> Float.compare a.time_s b.time_s)
