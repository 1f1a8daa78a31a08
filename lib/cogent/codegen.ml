open Tc_gpu
open Tc_expr

type dialect = Tc_kir.Print.dialect = Cuda | Opencl | C_host

let dialect_name = Tc_kir.Print.dialect_name

(* ---- naming ---- *)

let kernel_name (plan : Plan.t) =
  let info = Problem.info plan.Plan.problem in
  let s = Ast.tccg_string info.Classify.original in
  "cogent_" ^ String.map (fun c -> if c = '-' then '_' else c) s

(* ---- lowering onto the kernel IR ---- *)

let spec_of_plan (plan : Plan.t) : Tc_kir.Ir.spec =
  let info = Problem.info plan.Plan.problem in
  let m = plan.Plan.mapping in
  let b { Mapping.index; tile } = { Tc_kir.Ir.index; tile } in
  let all_idx = Classify.all_indices info in
  {
    Tc_kir.Ir.name = kernel_name plan;
    precision = plan.Plan.precision;
    schema = plan.Plan.schema;
    lhs = info.Classify.expr.Ast.lhs.Ast.indices;
    rhs = info.Classify.expr.Ast.rhs.Ast.indices;
    out = info.Classify.expr.Ast.out.Ast.indices;
    externals = info.Classify.externals;
    internals = info.Classify.internals;
    tbx = List.map b m.Mapping.tbx;
    regx = List.map b m.Mapping.regx;
    tby = List.map b m.Mapping.tby;
    regy = List.map b m.Mapping.regy;
    tbk = List.map b m.Mapping.tbk;
    grid = m.Mapping.grid;
    extents =
      List.map (fun i -> (i, Problem.extent plan.Plan.problem i)) all_idx;
  }

let lower plan = Tc_kir.Lower.kernel (spec_of_plan plan)

(* ---- translation-unit pieces, each appended to the caller's buffer ---- *)

let bpf = Printf.bprintf

(* Lower, cross-validate and print the kernel of one dialect into [buf]:
   every emitter lowers through here, exactly once per call. *)
let add_kernel buf dialect plan =
  let kernel = lower plan in
  (* the IR must account for exactly the resources the plan predicted *)
  Tc_kir.Check.cross_validate ~expected_smem:(Plan.smem_bytes plan)
    ~expected_regs:(Plan.regs_per_thread plan) kernel;
  Tc_kir.Print.kernel buf dialect kernel;
  kernel

let emit_kernel ?(dialect = Cuda) plan =
  let buf = Buffer.create 8192 in
  ignore (add_kernel buf dialect plan);
  Buffer.contents buf

let add_launcher buf (plan : Plan.t) =
  let info = Problem.info plan.Plan.problem in
  let scalar = Precision.cuda_type plan.Plan.precision in
  let tile_of = Mapping.tile_of plan.Plan.mapping in
  let kname = kernel_name plan in
  let all_ext = info.Classify.externals in
  let all_idx = Classify.all_indices info in
  let m = plan.Plan.mapping in
  bpf buf "extern \"C\" void %s_launch(\n" kname;
  bpf buf "    %s* d_C, const %s* d_A, const %s* d_B" scalar scalar scalar;
  List.iter (fun i -> bpf buf ",\n    int N_%c" i) all_idx;
  bpf buf ",\n    cudaStream_t stream)\n{\n";
  bpf buf "  long long blocks = 1;\n";
  List.iter
    (fun i ->
      bpf buf "  blocks *= (N_%c + %d - 1) / %d;\n" i (tile_of i) (tile_of i))
    all_ext;
  bpf buf "  dim3 block(%d, %d);\n" (Mapping.size_tbx m) (Mapping.size_tby m);
  bpf buf "  %s<<<(unsigned)blocks, block, 0, stream>>>(d_C, d_A, d_B" kname;
  List.iter (fun i -> bpf buf ", N_%c" i) all_idx;
  bpf buf ");\n}\n"

let add_header buf plan =
  let info = Problem.info plan.Plan.problem in
  let ppf = Format.formatter_of_buffer buf in
  Format.fprintf ppf
    "// Generated by COGENT (OCaml reproduction of Kim et al., CGO 2019)@\n\
     // contraction: %a@\n\
     // mapping:     %a@\n\
     // target:      %s, %a; %d threads/block, %d B smem, %d blocks, %d steps@\n\
     // model cost:  %.0f DRAM transactions@\n%!"
    Ast.pp info.Classify.original Mapping.pp plan.Plan.mapping
    plan.Plan.arch.Arch.name Precision.pp plan.Plan.precision
    (Plan.threads_per_block plan) (Plan.smem_bytes plan) (Plan.num_blocks plan)
    (Plan.num_steps plan) plan.Plan.cost

(* The [main] of a standalone CUDA unit: allocate device buffers at the
   representative extents, time a few launches, report GFLOPS. *)
let add_cuda_main buf (kernel : Tc_kir.Ir.kernel) plan =
  let spec = kernel.Tc_kir.Ir.spec in
  let scalar = Precision.cuda_type plan.Plan.precision in
  let kname = spec.Tc_kir.Ir.name in
  let all_idx = Tc_kir.Ir.all_indices spec in
  let problem = plan.Plan.problem in
  bpf buf "\nint main()\n{\n";
  List.iter
    (fun i -> bpf buf "  const int N_%c = %d;\n" i (Problem.extent problem i))
    all_idx;
  let elems indices =
    String.concat " * "
      (List.map (fun i -> Printf.sprintf "(size_t)N_%c" i) indices)
  in
  bpf buf "  size_t szA = %s, szB = %s, szC = %s;\n"
    (elems spec.Tc_kir.Ir.lhs) (elems spec.Tc_kir.Ir.rhs)
    (elems spec.Tc_kir.Ir.out);
  bpf buf "  %s *d_A, *d_B, *d_C;\n" scalar;
  bpf buf "  cudaMalloc(&d_A, szA * sizeof(%s));\n" scalar;
  bpf buf "  cudaMalloc(&d_B, szB * sizeof(%s));\n" scalar;
  bpf buf "  cudaMalloc(&d_C, szC * sizeof(%s));\n" scalar;
  bpf buf "  cudaEvent_t t0, t1; cudaEventCreate(&t0); cudaEventCreate(&t1);\n";
  bpf buf "  const int reps = 3;\n";
  let args =
    String.concat "" (List.map (fun i -> Printf.sprintf ", N_%c" i) all_idx)
  in
  bpf buf "  %s_launch(d_C, d_A, d_B%s, 0); // warm-up\n" kname args;
  bpf buf "  cudaEventRecord(t0);\n";
  bpf buf "  for (int r = 0; r < reps; ++r)\n";
  bpf buf "    %s_launch(d_C, d_A, d_B%s, 0);\n" kname args;
  bpf buf "  cudaEventRecord(t1); cudaEventSynchronize(t1);\n";
  bpf buf "  float ms = 0.f; cudaEventElapsedTime(&ms, t0, t1);\n";
  bpf buf "  double flops = %.1f;\n" (Problem.flops problem);
  bpf buf
    "  printf(\"%s: %%.3f ms, %%.1f GFLOPS\\n\", ms / reps, flops / (ms / \
     reps) / 1e6);\n"
    kname;
  bpf buf "  cudaFree(d_A); cudaFree(d_B); cudaFree(d_C);\n";
  bpf buf "  return 0;\n}\n"

(* The whole unit is assembled in one buffer, piece after piece, with a
   blank line between the header, any note, the kernel and the launcher or
   main. *)
let emit ?(dialect = Cuda) ?(standalone = false) plan =
  if standalone && dialect = Opencl then
    invalid_arg "Codegen.emit: no standalone form for the OpenCL dialect";
  let buf = Buffer.create 8192 in
  let puts = Buffer.add_string buf in
  (match dialect with
  | Cuda ->
      if standalone then puts "#include <cstdio>\n#include <cuda_runtime.h>\n\n";
      add_header buf plan;
      puts "\n";
      let kernel = add_kernel buf dialect plan in
      puts "\n";
      add_launcher buf plan;
      if standalone then add_cuda_main buf kernel plan
  | Opencl ->
      let m = plan.Plan.mapping in
      add_header buf plan;
      bpf buf
        "\n\
         // launch geometry: local = (%d, %d); global = (%d * num_blocks, %d)\n\
         // where num_blocks = prod over externals of ceil(N_i / tile_i)\n\
         // (representative size: %d blocks)\n\n"
        (Mapping.size_tbx m) (Mapping.size_tby m) (Mapping.size_tbx m)
        (Mapping.size_tby m) (Plan.num_blocks plan);
      ignore (add_kernel buf dialect plan)
  | C_host when standalone ->
      puts "#include <stdio.h>\n#include <stdlib.h>\n\n";
      add_header buf plan;
      puts "\n";
      let kernel = add_kernel buf dialect plan in
      puts "\n";
      Tc_kir.Print.c_main buf kernel
  | C_host ->
      add_header buf plan;
      bpf buf
        "\n\
         // C-host dialect: the thread grid is emulated with loops — one pass\n\
         // over all %d blocks, each barrier phase swept across the %d\n\
         // emulated threads — so this translation unit compiles with any\n\
         // C/C++ compiler and computes the contraction on the CPU.\n\n"
        (Plan.num_blocks plan) (Plan.threads_per_block plan);
      ignore (add_kernel buf dialect plan));
  Buffer.contents buf
