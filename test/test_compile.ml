(* Validation of emitted kernels with a real host compiler.

   There is no nvcc in this environment, but the CUDA-specific surface of
   the generated kernels is small enough to shim away with plain C++
   (qualifiers become storage classes, thread built-ins become globals),
   after which `g++ -fsyntax-only` checks the whole kernel body: every
   declaration, index expression, guard and loop the generator produced —
   for all 48 TCCG contractions, both precisions, and all three dialects.

   The C-host dialect needs no shim at all: its standalone translation
   unit is compiled with gcc, executed on deliberately tile-misaligned
   extents, and its output tensor is compared elementwise against
   [Contract_ref] — an end-to-end numerical check of the whole lowering.

   Launchers use the <<<...>>> launch syntax, which no host compiler
   parses, so only kernels are syntax-checked (the launcher text is
   covered by golden tests). *)

open Tc_gpu

let cuda_shim =
  {|#pragma once
#define __global__
#define __shared__ static
#define __restrict__ __restrict
struct shim_dim3 { unsigned x, y, z; };
static shim_dim3 threadIdx, blockIdx, blockDim, gridDim;
static inline void __syncthreads() {}
typedef float half;
static inline void __pipeline_memcpy_async(void* dst, const void* src,
                                           unsigned long n) {
  __builtin_memcpy(dst, src, n);
}
static inline void __pipeline_commit() {}
static inline void __pipeline_wait_prior(int) {}
|}

let opencl_shim =
  {|#pragma once
#define __kernel
#define __global
#define __local static
#define restrict __restrict
#define CLK_LOCAL_MEM_FENCE 0
static inline int get_local_id(int) { return 0; }
static inline int get_group_id(int) { return 0; }
static inline void barrier(int) {}
|}

let gxx_available =
  lazy (Sys.command "g++ --version > /dev/null 2>&1" = 0)

let syntax_check ~shim source =
  let dir = Filename.get_temp_dir_name () in
  let file = Filename.temp_file ~temp_dir:dir "cogent_kernel" ".cpp" in
  let oc = open_out file in
  output_string oc shim;
  output_string oc "\n";
  output_string oc source;
  close_out oc;
  let log = file ^ ".log" in
  let status =
    Sys.command
      (Printf.sprintf "g++ -x c++ -std=c++11 -fsyntax-only %s > %s 2>&1"
         (Filename.quote file) (Filename.quote log))
  in
  let diagnostics =
    if status = 0 then ""
    else begin
      let ic = open_in log in
      let n = min (in_channel_length ic) 2000 in
      let s = really_input_string ic n in
      close_in ic;
      s
    end
  in
  Sys.remove file;
  if Sys.file_exists log then Sys.remove log;
  (status = 0, diagnostics)

let check_kernel ?dialect ~shim plan name =
  let src = Cogent.Codegen.emit_kernel ?dialect plan in
  let ok, diag = syntax_check ~shim src in
  if not ok then
    Alcotest.fail (Printf.sprintf "%s does not compile:\n%s" name diag)

let require_gxx () =
  if not (Lazy.force gxx_available) then
    (* environments without a host compiler skip rather than fail *)
    raise (Failure "g++ unavailable")

let test_suite_kernels_compile precision () =
  require_gxx ();
  List.iter
    (fun e ->
      let problem = Tc_tccg.Suite.problem e in
      let plan = Gen.plan_of (Cogent.Ctx.make ~precision ()) problem in
      check_kernel ~shim:cuda_shim plan e.Tc_tccg.Suite.name)
    Tc_tccg.Suite.all

let test_suite_kernels_compile_opencl () =
  require_gxx ();
  List.iter
    (fun e ->
      let problem = Tc_tccg.Suite.problem e in
      let plan = Gen.plan_of Cogent.Ctx.default problem in
      check_kernel ~dialect:Cogent.Codegen.Opencl ~shim:opencl_shim plan
        (e.Tc_tccg.Suite.name ^ " (OpenCL)"))
    Tc_tccg.Suite.all

(* ---- C-host dialect: compile, execute, compare against Contract_ref ---- *)

let cc_available =
  lazy
    (if Sys.command "gcc --version > /dev/null 2>&1" = 0 then
       Some "gcc -std=c99"
     else if Sys.command "g++ --version > /dev/null 2>&1" = 0 then
       Some "g++ -x c++"
     else None)

let require_cc () =
  match Lazy.force cc_available with
  | Some cc -> cc
  | None ->
      (* environments without a host compiler skip rather than fail *)
      raise (Failure "no C compiler available")

(* Small odd extents (3, 5, 7) that do not divide any power-of-two tile, so
   the run exercises every partial-tile guard the generator emits. *)
let small_extents spec =
  List.mapi (fun k i -> (i, 3 + (2 * (k mod 3)))) (Tc_kir.Ir.all_indices spec)

let read_floats path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (float_of_string (String.trim line) :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let reference_output spec extents =
  let open Tc_tensor in
  let shape_of indices =
    Shape.make (List.map (fun i -> (i, List.assoc i extents)) indices)
  in
  let filled tag indices =
    let t = Dense.create (shape_of indices) in
    let d = Dense.unsafe_data t in
    Array.iteri (fun k _ -> d.(k) <- Tc_kir.Print.host_fill ~tag k) d;
    t
  in
  let a = filled 1 spec.Tc_kir.Ir.lhs and b = filled 2 spec.Tc_kir.Ir.rhs in
  Dense.unsafe_data (Contract_ref.contract ~out_indices:spec.Tc_kir.Ir.out a b)

(* Compile a plan's standalone C-host translation unit, run it on the
   tile-misaligned [small_extents], and return the printed output tensor. *)
let c_host_output cc plan name =
  let spec = Cogent.Codegen.spec_of_plan plan in
  let src =
    Cogent.Codegen.emit ~dialect:Cogent.Codegen.C_host ~standalone:true plan
  in
  let file = Filename.temp_file "cogent_chost" ".c" in
  let exe = Filename.temp_file "cogent_chost" ".exe" in
  let out = exe ^ ".out" and log = exe ^ ".log" in
  let oc = open_out file in
  output_string oc src;
  close_out oc;
  let cleanup () =
    List.iter
      (fun f -> if Sys.file_exists f then Sys.remove f)
      [ file; exe; out; log ]
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let status =
    Sys.command
      (Printf.sprintf "%s -O1 -o %s %s > %s 2>&1" cc (Filename.quote exe)
         (Filename.quote file) (Filename.quote log))
  in
  if status <> 0 then begin
    let ic = open_in log in
    let n = min (in_channel_length ic) 2000 in
    let diag = really_input_string ic n in
    close_in ic;
    Alcotest.fail (Printf.sprintf "%s does not compile:\n%s" name diag)
  end;
  let extents = small_extents spec in
  let args =
    String.concat " " (List.map (fun (_, n) -> string_of_int n) extents)
  in
  let status =
    Sys.command
      (Printf.sprintf "%s %s > %s" (Filename.quote exe) args
         (Filename.quote out))
  in
  if status <> 0 then
    Alcotest.fail (Printf.sprintf "%s exited with status %d" name status);
  Array.of_list (read_floats out)

let run_c_host cc plan name =
  let spec = Cogent.Codegen.spec_of_plan plan in
  let got = c_host_output cc plan name in
  let want = reference_output spec (small_extents spec) in
  if Array.length got <> Array.length want then
    Alcotest.fail
      (Printf.sprintf "%s: printed %d elements, reference has %d" name
         (Array.length got) (Array.length want));
  Array.iteri
    (fun k w ->
      if Float.abs (got.(k) -. w) > 1e-9 then
        Alcotest.fail
          (Printf.sprintf "%s: C[%d] = %.17g, reference %.17g" name k got.(k)
             w))
    want

let test_suite_kernels_execute () =
  let cc = require_cc () in
  List.iter
    (fun e ->
      let problem = Tc_tccg.Suite.problem e in
      let plan = Gen.plan_of Cogent.Ctx.default problem in
      run_c_host cc plan (e.Tc_tccg.Suite.name ^ " (C host)"))
    Tc_tccg.Suite.all

(* ---- pipelined schema: syntax, execution, classic-equivalence ---- *)

(* The driver under a forced schema picks the best-ranked mapping that
   admits it (doubled SMEM slabs within budget), so every TCCG entry gets
   a genuinely double-buffered kernel. *)
let pipelined_plan problem =
  match
    Cogent.Driver.run
      (Cogent.Ctx.make ~arch:Arch.a100 ~schema:Schema.Pipelined ())
      problem
  with
  | Ok t -> t.Cogent.Driver.plan
  | Error e -> Alcotest.fail (Cogent.Driver.error_to_string e)

let test_suite_kernels_compile_pipelined () =
  require_gxx ();
  List.iter
    (fun e ->
      let plan = pipelined_plan (Tc_tccg.Suite.problem e) in
      check_kernel ~shim:cuda_shim plan
        (e.Tc_tccg.Suite.name ^ " (pipelined)"))
    Tc_tccg.Suite.all

let test_mma_kernel_compiles () =
  require_gxx ();
  (* an fp16 MMA-schema kernel: the `half` scalar type plus the pipeline
     intrinsics, on a fragment-divisible 16x16 macro-tile *)
  let problem =
    Tc_expr.Problem.of_string_exn "ab-ac-cb"
      ~sizes:[ ('a', 32); ('b', 32); ('c', 32) ]
  in
  let b i t = { Cogent.Mapping.index = i; tile = t } in
  let mapping =
    {
      Cogent.Mapping.tbx = [ b 'a' 16 ];
      regx = [];
      tby = [ b 'b' 16 ];
      regy = [];
      tbk = [ b 'c' 8 ];
      grid = [];
    }
  in
  let plan =
    Result.get_ok
      (Result.bind
         (Cogent.Plan.make ~problem ~mapping ~arch:Arch.a100
            ~precision:Precision.FP16)
         (Cogent.Plan.with_schema Schema.Pipelined_mma))
  in
  check_kernel ~shim:cuda_shim plan "ab-ac-cb (fp16 MMA)"

let test_suite_kernels_execute_pipelined () =
  let cc = require_cc () in
  List.iter
    (fun e ->
      let plan = pipelined_plan (Tc_tccg.Suite.problem e) in
      run_c_host cc plan (e.Tc_tccg.Suite.name ^ " (pipelined C host)"))
    Tc_tccg.Suite.all

(* The two-slab rotation only reorders loads, so classic and pipelined
   lowerings of one plan must print bit-identical output tensors on the
   tile-misaligned extents (fixed seed; vacuously true without a host
   compiler, matching the skips above). *)
let prop_pipelined_matches_classic =
  QCheck.Test.make ~count:6
    ~name:"classic and pipelined C-host executables agree"
    Gen.case_arbitrary (fun c ->
      match Lazy.force cc_available with
      | None -> true
      | Some cc ->
          let plan =
            Gen.plan_of (Cogent.Ctx.make ~arch:Arch.a100 ()) c.Gen.problem
          in
          if
            not
              (Cogent.Plan.schema_feasible ~arch:Arch.a100
                 ~precision:plan.Cogent.Plan.precision
                 ~mapping:plan.Cogent.Plan.mapping Schema.Pipelined)
          then true
          else
            let piped = Result.get_ok (Cogent.Plan.with_schema Schema.Pipelined plan) in
            c_host_output cc plan "classic"
            = c_host_output cc piped "pipelined")

let test_adversarial_mappings_compile () =
  require_gxx ();
  (* degenerate-but-valid configurations stress the emitter's decompose and
     guard paths *)
  let problem =
    Tc_expr.Problem.of_string_exn "abcd-aebf-dfce"
      ~sizes:[ ('a', 5); ('b', 3); ('c', 7); ('d', 2); ('e', 3); ('f', 2) ]
  in
  let b i t = { Cogent.Mapping.index = i; tile = t } in
  let mappings =
    [
      (* everything on the grid but the FVI *)
      {
        Cogent.Mapping.tbx = [ b 'a' 5 ];
        regx = [];
        tby = [];
        regy = [];
        tbk = [ b 'e' 1; b 'f' 1 ];
        grid = [ 'b'; 'c'; 'd' ];
      };
      (* multi-index everything *)
      {
        Cogent.Mapping.tbx = [ b 'a' 5; b 'b' 3 ];
        regx = [];
        tby = [ b 'd' 2; b 'c' 2 ];
        regy = [];
        tbk = [ b 'e' 3; b 'f' 2 ];
        grid = [];
      };
    ]
  in
  List.iteri
    (fun k m ->
      let plan =
        Result.get_ok
          (Cogent.Plan.make ~problem ~mapping:m ~arch:Arch.v100
             ~precision:Precision.FP64)
      in
      check_kernel ~shim:cuda_shim plan (Printf.sprintf "adversarial %d" k))
    mappings

let () =
  Alcotest.run "compile"
    [
      ( "syntax (g++ shim)",
        [
          Alcotest.test_case "48 TCCG kernels, FP64" `Slow
            (test_suite_kernels_compile Precision.FP64);
          Alcotest.test_case "48 TCCG kernels, FP32" `Slow
            (test_suite_kernels_compile Precision.FP32);
          Alcotest.test_case "48 TCCG kernels, OpenCL" `Slow
            test_suite_kernels_compile_opencl;
          Alcotest.test_case "adversarial mappings" `Slow
            test_adversarial_mappings_compile;
          Alcotest.test_case "fp16 MMA kernel" `Slow test_mma_kernel_compiles;
          Alcotest.test_case "48 TCCG kernels, pipelined" `Slow
            test_suite_kernels_compile_pipelined;
        ] );
      ( "execute (gcc, C-host dialect)",
        [
          Alcotest.test_case "48 TCCG kernels match Contract_ref" `Slow
            test_suite_kernels_execute;
          Alcotest.test_case "48 TCCG pipelined kernels match Contract_ref"
            `Slow test_suite_kernels_execute_pipelined;
          Gen.to_alcotest prop_pipelined_matches_classic;
        ] );
    ]
