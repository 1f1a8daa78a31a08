open Tc_gpu
open Tc_expr

type variant = { name : string; sizes : Sizes.t; plan : Plan.t }
type t = { ast : Ast.t; variants : variant list }

let ( let* ) = Result.bind

let generate_ctx ctx ast size_list =
  if size_list = [] then
    Error (Driver.Bad_problem "Variants.generate_ctx: no representative sizes")
  else begin
    let rec plan_all k acc = function
      | [] -> Ok (List.rev acc)
      | sizes :: rest ->
          let* problem =
            Result.map_error
              (fun m -> Driver.Bad_problem m)
              (Problem.make ast sizes)
          in
          let* r = Driver.run ctx problem in
          let name =
            Printf.sprintf "%s_v%d" (Codegen.kernel_name r.Driver.plan) k
          in
          plan_all (k + 1)
            ({ name; sizes; plan = r.Driver.plan } :: acc)
            rest
    in
    let* variants = plan_all 0 [] size_list in
    Ok { ast; variants }
  end

let distance a b indices =
  List.fold_left
    (fun acc i ->
      acc
      +. Float.abs
           (log
              (float_of_int (Sizes.extent a i)
              /. float_of_int (Sizes.extent b i))))
    0.0 indices

let indices_of t =
  Classify.all_indices (Problem.info (List.hd t.variants).plan.Plan.problem)

let select t actual =
  let indices = indices_of t in
  if not (Sizes.covers actual indices) then
    invalid_arg "Variants.select: size map does not cover the contraction";
  List.fold_left
    (fun best v ->
      if distance v.sizes actual indices < distance best.sizes actual indices
      then v
      else best)
    (List.hd t.variants) t.variants

let emit t =
  let buf = Buffer.create 8192 in
  let bpf = Printf.bprintf in
  let head = List.hd t.variants in
  let indices = indices_of t in
  let scalar = Precision.cuda_type head.plan.Plan.precision in
  let base = Codegen.kernel_name head.plan in
  bpf buf "// Multi-version kernels for %s (one per representative size, \u{00a7}IV-B)\n"
    (Ast.tccg_string t.ast);
  List.iter
    (fun v ->
      bpf buf "//   %s tuned for %s\n" v.name
        (Format.asprintf "%a" Sizes.pp v.sizes))
    t.variants;
  bpf buf "#include <cmath>\n\n";
  List.iter
    (fun v ->
      Buffer.add_string buf (Codegen.emit_kernel ~name:v.name v.plan);
      Buffer.add_char buf '\n';
      Buffer.add_string buf (Codegen.emit_launcher ~name:v.name v.plan);
      Buffer.add_char buf '\n')
    t.variants;
  (* runtime dispatcher: nearest representative in log-extent space *)
  bpf buf "extern \"C\" void %s_dispatch(\n" base;
  bpf buf "    %s* d_C, const %s* d_A, const %s* d_B" scalar scalar scalar;
  List.iter (fun i -> bpf buf ",\n    int N_%c" i) indices;
  bpf buf ",\n    cudaStream_t stream)\n{\n";
  bpf buf "  double best = 1e300;\n  int which = 0;\n  double d;\n";
  List.iteri
    (fun k v ->
      let terms =
        String.concat " + "
          (List.map
             (fun i ->
               Printf.sprintf "fabs(log((double)N_%c / %d.0))" i
                 (Sizes.extent v.sizes i))
             indices)
      in
      bpf buf "  d = %s;\n" terms;
      bpf buf "  if (d < best) { best = d; which = %d; }\n" k)
    t.variants;
  bpf buf "  switch (which) {\n";
  List.iteri
    (fun k v ->
      bpf buf "  case %d: %s_launch(d_C, d_A, d_B%s, stream); break;\n" k
        v.name
        (String.concat ""
           (List.map (fun i -> Printf.sprintf ", N_%c" i) indices)))
    t.variants;
  bpf buf "  default: break;\n  }\n}\n";
  Buffer.contents buf
