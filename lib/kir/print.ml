open Tc_gpu
open Ir

type dialect = Cuda | Opencl | C_host

let dialect_name = function
  | Cuda -> "CUDA"
  | Opencl -> "OpenCL"
  | C_host -> "C host"

(* [async] is set only while printing a CUDA phase that {!Lower} marked
   async: slab stores then print as [__pipeline_memcpy_async] copies. *)
type ctx = { d : dialect; prec : Precision.t; async : bool; buf : Buffer.t }

let bpf ctx fmt = Printf.bprintf ctx.buf fmt
let puts ctx s = Buffer.add_string ctx.buf s

(* the C host executes half-precision kernels in float: the emulation targets
   numerical checking, not storage-format fidelity *)
let scalar ctx =
  match (ctx.d, ctx.prec) with
  | C_host, Precision.FP16 -> "float"
  | _ -> Precision.cuda_type ctx.prec

let zero ctx =
  match ctx.prec with
  | Precision.FP64 -> "0.0"
  | FP32 | FP16 | TF32 -> "0.0f"
let i64_ty ctx = match ctx.d with Opencl -> "long" | Cuda | C_host -> "long long"
let flag_ty ctx = match ctx.d with Cuda -> "bool" | Opencl | C_host -> "int"

let ty_name ctx = function
  | Int -> "int"
  | I64 -> i64_ty ctx
  | Bool -> flag_ty ctx
  | Scalar -> scalar ctx

let builtin_str ctx b =
  match (b, ctx.d) with
  | Thread_x, Cuda -> "threadIdx.x"
  | Thread_x, Opencl -> "get_local_id(0)"
  | Thread_x, C_host -> "t_x"
  | Thread_y, Cuda -> "threadIdx.y"
  | Thread_y, Opencl -> "get_local_id(1)"
  | Thread_y, C_host -> "t_y"
  | Block_flat, Cuda -> "blockIdx.x"
  | Block_flat, Opencl -> "(long)get_group_id(0)"
  | Block_flat, C_host -> "blk"

(* Non-negative ints go digit by digit, without an intermediate string. *)
let rec add_nat buf n =
  if n >= 10 then add_nat buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let int ctx n = if n >= 0 then add_nat ctx.buf n else puts ctx (string_of_int n)

(* C precedence levels used here: 5 = * / %, 4 = + -, 2 = &, 1 = ?:.
   [Lt] only ever appears inside guards and is always parenthesized;
   casts and primaries bind tightest.  Every printer appends to [ctx.buf];
   [prec] is the parent's level, which decides the parentheses. *)
let rec expr ctx prec e =
  let bin my a op b =
    if my < prec then puts ctx "(";
    expr ctx my a;
    puts ctx op;
    expr ctx (my + 1) b;
    if my < prec then puts ctx ")"
  in
  match e with
  | Int_lit n -> int ctx n
  | I64_lit n -> (
      match ctx.d with
      | Opencl ->
          puts ctx "(long)";
          int ctx n
      | Cuda | C_host ->
          int ctx n;
          puts ctx "LL")
  | Scalar_zero -> puts ctx (zero ctx)
  | Var n -> puts ctx n
  | Builtin b -> puts ctx (builtin_str ctx b)
  | Add (a, b) -> bin 4 a " + " b
  | Sub (a, b) -> bin 4 a " - " b
  | Mul (a, b) -> bin 5 a " * " b
  | Div (a, b) -> bin 5 a " / " b
  | Mod (a, b) -> bin 5 a " % " b
  | Lt (a, b) ->
      puts ctx "(";
      expr ctx 0 a;
      puts ctx " < ";
      expr ctx 0 b;
      puts ctx ")"
  | And (a, b) -> bin 2 a " & " b
  | Cast (t, a) ->
      puts ctx "(";
      puts ctx (ty_name ctx t);
      puts ctx ")";
      atom ctx a
  | Select (c, a, b) ->
      if prec > 1 then puts ctx "(";
      expr ctx 2 c;
      puts ctx " ? ";
      expr ctx 2 a;
      puts ctx " : ";
      expr ctx 2 b;
      if prec > 1 then puts ctx ")"
  | Index (n, a) -> subscript ctx n a

and atom ctx e =
  match e with
  | Int_lit _ | I64_lit _ | Var _ | Index _ -> expr ctx 0 e
  | _ ->
      puts ctx "(";
      expr ctx 0 e;
      puts ctx ")"

(* [n[e]] *)
and subscript ctx n e =
  puts ctx n;
  puts ctx "[";
  expr ctx 0 e;
  puts ctx "]"

let lval ctx = function Lvar n -> puts ctx n | Larr (n, e) -> subscript ctx n e

let ind ctx n =
  for _ = 1 to 2 * n do
    Buffer.add_char ctx.buf ' '
  done

(* [__pipeline_memcpy_async(&dst[da], &src[sa], sizeof(scalar));] *)
let memcpy_async ctx dst da src sa =
  puts ctx "__pipeline_memcpy_async(&";
  subscript ctx dst da;
  puts ctx ", &";
  subscript ctx src sa;
  puts ctx ", sizeof(";
  puts ctx (scalar ctx);
  puts ctx "));\n"

let rec stmt ctx n s =
  match s with
  (* async CUDA staging: a guarded slab store becomes an asynchronous
     GMEM→SMEM copy (the guard-false arm zero-fills synchronously, exactly
     like the [Select]'s else branch) *)
  | Assign (Larr (dst, da), Select (c, Index (src, sa), Scalar_zero))
    when ctx.async ->
      ind ctx n;
      puts ctx "if (";
      expr ctx 0 c;
      puts ctx ") ";
      memcpy_async ctx dst da src sa;
      ind ctx n;
      puts ctx "else ";
      subscript ctx dst da;
      puts ctx " = ";
      puts ctx (zero ctx);
      puts ctx ";\n"
  | Assign (Larr (dst, da), Index (src, sa)) when ctx.async ->
      ind ctx n;
      memcpy_async ctx dst da src sa
  | Decl { ty; const; name; init } ->
      ind ctx n;
      if const then puts ctx "const ";
      puts ctx (ty_name ctx ty);
      puts ctx " ";
      puts ctx name;
      (match init with
      | Some e ->
          puts ctx " = ";
          expr ctx 0 e
      | None -> ());
      puts ctx ";\n"
  | Assign (lv, e) ->
      ind ctx n;
      lval ctx lv;
      puts ctx " = ";
      expr ctx 0 e;
      puts ctx ";\n"
  | Div_assign (lv, e) ->
      ind ctx n;
      lval ctx lv;
      puts ctx " /= ";
      expr ctx 0 e;
      puts ctx ";\n"
  | Fma { acc; a; b } ->
      ind ctx n;
      lval ctx acc;
      puts ctx " += ";
      expr ctx 5 a;
      puts ctx " * ";
      expr ctx 6 b;
      puts ctx ";\n"
  | For { var; start; bound; step; unroll; body } ->
      if unroll && ctx.d <> C_host then puts ctx "#pragma unroll\n";
      ind ctx n;
      puts ctx "for (int ";
      puts ctx var;
      puts ctx " = ";
      expr ctx 0 start;
      puts ctx "; ";
      puts ctx var;
      puts ctx " < ";
      expr ctx 0 bound;
      puts ctx "; ";
      (match step with
      | Int_lit 1 ->
          puts ctx "++";
          puts ctx var
      | e ->
          puts ctx var;
          puts ctx " += ";
          expr ctx 0 e);
      puts ctx ")";
      block ctx n body
  | If (c, body) ->
      ind ctx n;
      puts ctx "if (";
      expr ctx 0 c;
      puts ctx ")";
      block ctx n body
  | Scope body ->
      ind ctx n;
      puts ctx "{\n";
      stmts ctx (n + 1) body;
      ind ctx n;
      puts ctx "}\n"
  | Comment s ->
      ind ctx n;
      puts ctx "// ";
      puts ctx s;
      puts ctx "\n"

(* single statements that introduce no declaration print braceless *)
and block ctx n body =
  match body with
  | [ ((Assign _ | Div_assign _ | Fma _ | For _ | If _) as s) ] ->
      puts ctx "\n";
      stmt ctx (n + 1) s
  | _ ->
      puts ctx " {\n";
      stmts ctx (n + 1) body;
      ind ctx n;
      puts ctx "}\n"

and stmts ctx n l = List.iter (stmt ctx n) l

(* The extent parameters that close every kernel signature. *)
let params ctx s =
  List.iter (fun i -> bpf ctx ",\n    const int N_%c" i) (all_indices s);
  puts ctx ")\n{\n"

(* ---- the block schedule: one walker, per-dialect phases and fences ---- *)

let fence_lines d f =
  match (d, f) with
  | Cuda, Barrier -> [ "__syncthreads();" ]
  | Cuda, After_prologue -> [ "__pipeline_commit();" ]
  (* the commit is unconditional so every iteration retires exactly one
     copy group and [wait_prior(1)] needs no runtime group count *)
  | Cuda, After_prefetch ->
      [
        "__pipeline_commit();"; "__pipeline_wait_prior(1);"; "__syncthreads();";
      ]
  | Opencl, (Barrier | After_prologue) -> [ "barrier(CLK_LOCAL_MEM_FENCE);" ]
  | Opencl, After_prefetch | C_host, _ -> []

(* [phase n p] prints one phase at depth [n]; everything else about the
   schedule prints the same in every dialect. *)
let rec schedule ctx ~phase n body =
  let nested b =
    schedule ctx ~phase (n + 1) b;
    ind ctx n;
    puts ctx "}\n"
  in
  List.iter
    (function
      | Uniform b -> stmts ctx n b
      | Phase p -> phase n p
      | Fence f ->
          List.iter
            (fun l ->
              ind ctx n;
              puts ctx l;
              puts ctx "\n")
            (fence_lines ctx.d f)
      | Scoped b ->
          ind ctx n;
          puts ctx "{\n";
          nested b
      | Step_loop b ->
          ind ctx n;
          bpf ctx "for (int %s = 0; %s < %s; ++%s) {\n" step_var step_var
            num_steps_var step_var;
          nested b
      | If_next_step b ->
          ind ctx n;
          bpf ctx "if (%s + 1 < %s) {\n" step_var num_steps_var;
          nested b)
    body

(* ---- GPU dialects: one real thread per (tx, ty), phases inline ---- *)

let gpu_kernel ctx (k : kernel) =
  let s = k.spec in
  let sc = scalar ctx in
  (match ctx.d with
  | Cuda ->
      bpf ctx "extern \"C\" __global__ void %s(\n" s.name;
      bpf ctx "    %s* __restrict__ g_C,\n" sc;
      bpf ctx "    const %s* __restrict__ g_A,\n" sc;
      bpf ctx "    const %s* __restrict__ g_B" sc
  | Opencl ->
      (match s.precision with
      | Precision.FP64 ->
          puts ctx "#pragma OPENCL EXTENSION cl_khr_fp64 : enable\n\n"
      | Precision.FP16 ->
          puts ctx "#pragma OPENCL EXTENSION cl_khr_fp16 : enable\n\n"
      | Precision.FP32 | Precision.TF32 -> ());
      bpf ctx "__kernel void %s(\n" s.name;
      bpf ctx "    __global %s* restrict g_C,\n" sc;
      bpf ctx "    __global const %s* restrict g_A,\n" sc;
      bpf ctx "    __global const %s* restrict g_B" sc
  | C_host -> invalid_arg "Tc_kir.Print.gpu_kernel: C_host");
  params ctx s;
  stmts ctx 1 k.grid_setup;
  stmts ctx 1 k.block_setup;
  stmts ctx 1 k.step_counts;
  stmts ctx 1 k.thread_init;
  let smem_qual = match ctx.d with Cuda -> "__shared__" | _ -> "__local" in
  List.iter
    (fun a -> bpf ctx "  %s %s %s[%d];\n" smem_qual sc a.a_name a.elems)
    k.smem;
  bpf ctx "  %s %s[%d];\n" sc k.acc.a_name k.acc.elems;
  List.iter (fun a -> bpf ctx "  %s %s[%d];\n" sc a.a_name a.elems) k.regs;
  (* only CUDA has asynchronous GMEM→SMEM copies *)
  let async_ctx = { ctx with async = ctx.d = Cuda } in
  schedule ctx 1 k.body ~phase:(fun n p ->
      stmts (if p.async then async_ctx else ctx) n p.body);
  puts ctx "}\n"

(* ---- C-host dialect: thread grid emulated with loops ---- *)

let c_kernel ctx (k : kernel) =
  let s = k.spec in
  let sc = scalar ctx in
  (* the per-thread accumulator tile becomes one block-wide array *)
  let acc_offset = Mul (Var tid_var, Int_lit k.acc.elems) in
  let per_thread = offset_array ~name:k.acc.a_name ~offset:acc_offset in
  (* every phase runs to completion across the whole emulated thread grid
     before the next phase starts, which is what makes the fences no-ops *)
  let thread_loop n { kind; body; _ } =
    ind ctx n;
    bpf ctx "for (int t_y = 0; t_y < %d; ++t_y)\n" (threads_y s);
    ind ctx n;
    bpf ctx "for (int t_x = 0; t_x < %d; ++t_x) {\n" (threads_x s);
    stmts ctx (n + 1) k.thread_init;
    if kind = Compute then
      List.iter
        (fun a ->
          ind ctx (n + 1);
          bpf ctx "%s %s[%d];\n" sc a.a_name a.elems)
        k.regs;
    stmts ctx (n + 1) (per_thread body);
    ind ctx n;
    puts ctx "}\n"
  in
  bpf ctx "void %s(\n" s.name;
  bpf ctx "    %s* g_C,\n" sc;
  bpf ctx "    const %s* g_A,\n" sc;
  bpf ctx "    const %s* g_B" sc;
  params ctx s;
  stmts ctx 1 k.grid_setup;
  stmts ctx 1 k.step_counts;
  let n_blocks =
    match s.externals with
    | [] -> "1LL"
    | first :: rest ->
        String.concat " * "
          (Printf.sprintf "(long long)nb_%c" first
          :: List.map (Printf.sprintf "nb_%c") rest)
  in
  bpf ctx "  const long long n_blocks = %s;\n" n_blocks;
  puts ctx "  for (long long blk = 0; blk < n_blocks; ++blk) {\n";
  stmts ctx 2 k.block_setup;
  List.iter (fun a -> bpf ctx "    %s %s[%d];\n" sc a.a_name a.elems) k.smem;
  bpf ctx "    %s %s[%d];\n" sc k.acc.a_name (threads s * k.acc.elems);
  schedule ctx ~phase:thread_loop 2 k.body;
  puts ctx "  }\n";
  puts ctx "}\n"

let kernel buf d (k : kernel) =
  let ctx = { d; prec = k.spec.precision; async = false; buf } in
  match d with Cuda | Opencl -> gpu_kernel ctx k | C_host -> c_kernel ctx k

(* ---- C-host standalone driver ---- *)

let host_fill ~tag k =
  float_of_int (((2654435761 * k) + (40503 * tag)) land 0xFFFFFF)
  /. 16777216.0
  -. 0.5

let c_main buf (k : kernel) =
  let s = k.spec in
  let ctx = { d = C_host; prec = s.precision; async = false; buf } in
  let sc = scalar ctx in
  let idx = all_indices s in
  puts ctx "static double tc_fill(unsigned tag, size_t k)\n{\n";
  puts ctx
    "  unsigned v = (2654435761u * (unsigned)k + 40503u * tag) & 0xFFFFFFu;\n";
  puts ctx "  return (double)v / 16777216.0 - 0.5;\n}\n\n";
  puts ctx "int main(int argc, char** argv)\n{\n";
  List.iter (fun i -> bpf ctx "  int N_%c = %d;\n" i (extent_of s i)) idx;
  List.iteri
    (fun pos i ->
      bpf ctx "  if (argc > %d) N_%c = atoi(argv[%d]);\n" (pos + 1) i (pos + 1))
    idx;
  let size_expr = function
    | [] -> "(size_t)1"
    | l -> String.concat " * " (List.map (Printf.sprintf "(size_t)N_%c") l)
  in
  bpf ctx "  size_t szA = %s, szB = %s, szC = %s;\n" (size_expr s.lhs)
    (size_expr s.rhs) (size_expr s.out);
  List.iter
    (fun v -> bpf ctx "  %s* %s = (%s*)malloc(sz%s * sizeof(%s));\n" sc v sc v sc)
    [ "A"; "B"; "C" ];
  bpf ctx "  for (size_t i = 0; i < szA; ++i) A[i] = (%s)tc_fill(1u, i);\n" sc;
  bpf ctx "  for (size_t i = 0; i < szB; ++i) B[i] = (%s)tc_fill(2u, i);\n" sc;
  bpf ctx "  for (size_t i = 0; i < szC; ++i) C[i] = (%s)0;\n" sc;
  bpf ctx "  %s(C, A, B%s);\n" s.name
    (String.concat ""
       (List.map (fun i -> Printf.sprintf ", N_%c" i) idx));
  puts ctx
    "  for (size_t i = 0; i < szC; ++i) printf(\"%.17g\\n\", (double)C[i]);\n";
  puts ctx "  free(A); free(B); free(C);\n  return 0;\n}\n"
