(** Code generation (Algorithm 1), lowered through the typed kernel IR.

    Emits, for a given plan, a kernel with the four-phase structure of the
    paper — cooperative GMEM→SMEM staging of input slabs, SMEM→register
    vector loads, register-tile outer products over the serial TB_k sweep,
    and guarded coalesced stores — plus a host-side launcher.

    One emitter, {!emit}, covers every dialect × standalone choice:
    {!lower} encodes Algorithm 1 once as a [Tc_kir.Ir.kernel], a
    [Tc_kir.Print] dialect renders it, and [Tc_kir.Check.cross_validate]
    asserts at emission time that the shared-memory footprint and register
    estimate derived from the IR match the plan's predictions.

    Tile sizes, thread-block shape and shared-memory footprints are baked in
    as compile-time constants (they define the configuration); tensor
    extents remain {e runtime parameters}, so one generated kernel supports
    arbitrary problem sizes and the representative size only drives the
    configuration choice (§IV-B). *)

type dialect = Tc_kir.Print.dialect = Cuda | Opencl | C_host

val dialect_name : dialect -> string

val kernel_name : Plan.t -> string
(** A C identifier derived from the TCCG string of the contraction,
    e.g. ["cogent_abcd_aebf_dfce"]. *)

val spec_of_plan : Plan.t -> Tc_kir.Ir.spec
(** The self-contained lowering input extracted from a plan: operand
    layouts, index classes, mapping bindings and representative extents. *)

val lower : Plan.t -> Tc_kir.Ir.kernel
(** [Plan.t → Tc_kir.kernel]: the single encoding of Algorithm 1
    ([Tc_kir.Lower.kernel ∘ spec_of_plan]). *)

val emit_kernel : ?dialect:dialect -> Plan.t -> string
(** The kernel definition only ([__global__] CUDA by default; with
    [~dialect:Opencl] an OpenCL [__kernel] using [__local] staging and
    [barrier] synchronization; with [~dialect:C_host] plain C that emulates
    the thread grid with loops and runs on the CPU).
    @raise Invalid_argument if the IR-derived resource footprint disagrees
    with the plan (see [Tc_kir.Check.cross_validate]). *)

val emit : ?dialect:dialect -> ?standalone:bool -> Plan.t -> string
(** A complete translation unit whose kernel is named {!kernel_name}:
    the header comment, then per dialect
    {ul
    {- [Cuda] (the default): the kernel and its launcher — a compilable
       [.cu] file given CUDA headers;}
    {- [Opencl]: the [__kernel], after a comment documenting the NDRange
       launch geometry (global/local work sizes) the host must use;}
    {- [C_host]: the kernel as a plain C function, after a note on the
       loop-based execution model.}}
    [standalone:true] adds the includes and a [main]: for CUDA, one that
    allocates device buffers at the representative problem size, runs the
    kernel repeatedly and reports GFLOPS (the shape of the paper's
    benchmark drivers); for C, one that fills the inputs with the
    deterministic [Tc_kir.Print.host_fill] pattern, runs the contraction
    on the CPU at the representative extents (overridable via argv) and
    prints every output element — the executable form the numeric tests
    diff against [Tensor.Contract_ref].  The plan is lowered and
    cross-validated once per call.
    @raise Invalid_argument for [~dialect:Opencl ~standalone:true], or as
    {!emit_kernel}. *)
