open Tc_tensor
open Ir

(* Everything the lowering needs about one tensor operand. *)
type view = {
  cname : string;  (* g_A, g_B, g_C *)
  indices : Index.t list;  (* layout order, FVI first *)
  stride_prefix : string;  (* sA, sB, sC *)
}

let lhs_view s = { cname = "g_A"; indices = s.lhs; stride_prefix = "sA" }
let rhs_view s = { cname = "g_B"; indices = s.rhs; stride_prefix = "sB" }
let out_view s = { cname = "g_C"; indices = s.out; stride_prefix = "sC" }

let extent_name i = Printf.sprintf "N_%c" i
let stride_name v i = Printf.sprintf "%s_%c" v.stride_prefix i
let local_name prefix i = Printf.sprintf "%s_%c" prefix i

let is_internal s i = List.exists (Index.equal i) s.internals

let base_name s i =
  Printf.sprintf (if is_internal s i then "kbase_%c" else "base_%c") i

let in_bindings bindings i =
  List.exists (fun b -> Index.equal b.index i) bindings

(* Runtime global-memory strides of an operand, derived from extents. *)
let gmem_strides v =
  let rec go stride = function
    | [] -> []
    | i :: rest ->
        Decl { ty = I64; const = true; name = stride_name v i;
               init = Some stride }
        :: go (Mul (Var (stride_name v i), Var (extent_name i))) rest
  in
  go (I64_lit 1) v.indices

(* Compile-time shared-memory strides of an input slab laid out in the
   operand's own index order with tile-sized dims. *)
let smem_strides s v =
  let rec go acc stride = function
    | [] -> List.rev acc
    | i :: rest -> go ((i, stride) :: acc) (stride * tile_of s i) rest
  in
  go [] 1 v.indices

(* Decompose a flat loop variable [var] into one local coordinate per index
   of [indices] (first = fastest): "const int <prefix>_<i> = ...". *)
let decompose ~indices ~tiles ~var ~prefix =
  let tmp = var ^ "_r" in
  let needs_tmp =
    (* a temporary is only needed if some index after the first non-trivial
       one also has a non-trivial tile *)
    List.length (List.filter (fun t -> t > 1) tiles) > 1
  in
  let n = List.length indices in
  let body =
    List.concat
      (List.mapi
         (fun k (i, t) ->
           let name = local_name prefix i in
           let decl init =
             Decl { ty = Int; const = true; name; init = Some init }
           in
           if t = 1 then [ decl (Int_lit 0) ]
           else
             let src = Var (if needs_tmp then tmp else var) in
             if k = n - 1 then [ decl src ]
             else
               decl (Mod (src, Int_lit t))
               :: (if needs_tmp then [ Div_assign (Lvar tmp, Int_lit t) ]
                   else []))
         (List.combine indices tiles))
  in
  if needs_tmp then
    Decl { ty = Int; const = false; name = tmp; init = Some (Var var) } :: body
  else body

let decompose_bindings ~bindings ~var ~prefix =
  decompose
    ~indices:(List.map (fun b -> b.index) bindings)
    ~tiles:(List.map (fun b -> b.tile) bindings)
    ~var ~prefix

let sum = function
  | [] -> Int_lit 0
  | t :: rest -> List.fold_left (fun acc e -> Add (acc, e)) t rest

let conj = function
  | [] -> Int_lit 1
  | t :: rest -> List.fold_left (fun acc e -> And (acc, e)) t rest

(* Sum-of-products address expression: base_i + local_i per index. *)
let gmem_address s v ~local_prefix =
  sum
    (List.map
       (fun i ->
         Mul
           ( Cast
               (I64, Add (Var (base_name s i), Var (local_name local_prefix i))),
             Var (stride_name v i) ))
       v.indices)

let smem_address s v ~coord =
  let terms =
    List.filter_map
      (fun (i, stride) ->
        match coord i with
        | Int_lit 0 -> None
        | c -> if stride = 1 then Some c else Some (Mul (c, Int_lit stride)))
      (smem_strides s v)
  in
  sum terms

let guard_expr s v ~local_prefix =
  conj
    (List.map
       (fun i ->
         Lt
           ( Add (Var (base_name s i), Var (local_name local_prefix i)),
             Var (extent_name i) ))
       v.indices)

(* Cooperative GMEM -> SMEM staging loop for one input slab.  The guard
   flag is named per slab (ok_la / ok_lb), so the emitted text declares a
   distinct flag for each slab; the golden files lock those names. *)
let slab_load s v ~smem ~local_prefix =
  let elems = slab_elems s v.indices in
  let tiles = List.map (tile_of s) v.indices in
  let flag = "ok_" ^ local_prefix in
  For
    {
      var = "l";
      start = Var tid_var;
      bound = Int_lit elems;
      step = Int_lit (threads s);
      unroll = false;
      body =
        decompose ~indices:v.indices ~tiles ~var:"l" ~prefix:local_prefix
        @ [
            Decl { ty = Bool; const = true; name = flag;
                   init = Some (guard_expr s v ~local_prefix) };
            Assign
              ( Larr
                  ( smem,
                    smem_address s v ~coord:(fun i ->
                        Var (local_name local_prefix i)) ),
                Select
                  ( Var flag,
                    Index (v.cname, gmem_address s v ~local_prefix),
                    Scalar_zero ) );
          ];
    }

let ceil_div_decl name extent tile =
  Decl
    { ty = Int; const = true; name;
      init =
        Some (Div (Sub (Add (Var extent, Int_lit tile), Int_lit 1),
                   Int_lit tile)) }

(* Decode a flat counter [src] (mixed-radix digits [counts], tile scale per
   digit) into "base" coordinates; last digit needs no modulo. *)
let decode_bases ~src ~names ~counts ~tiles ~init =
  let n = List.length names in
  Decl { ty = I64; const = false; name = src; init = Some init }
  :: List.concat
       (List.mapi
          (fun k ((name, count), tile) ->
            let digit =
              if k = n - 1 then Cast (Int, Var src)
              else Cast (Int, Mod (Var src, Var count))
            in
            Decl { ty = Int; const = true; name;
                   init = Some (Mul (digit, Int_lit tile)) }
            :: (if k = n - 1 then []
                else [ Div_assign (Lvar src, Var count) ]))
          (List.combine (List.combine names counts) tiles))

let kernel (s : spec) =
  let a = lhs_view s and b = rhs_view s and c = out_view s in
  let rx = size_regx s and ry = size_regy s and tk = size_tbk s in
  let slab_a = slab_elems s a.indices and slab_b = slab_elems s b.indices in
  let pipelined = Tc_gpu.Schema.pipelined s.schema in
  (* -- grid setup: strides and per-external chunk counts -- *)
  let grid_setup =
    gmem_strides a @ gmem_strides b @ gmem_strides c
    @ List.map
        (fun i ->
          ceil_div_decl
            (Printf.sprintf "nb_%c" i)
            (extent_name i) (tile_of s i))
        s.externals
  in
  (* -- block setup: block bases decoded from the flat block id -- *)
  let block_setup =
    match s.externals with
    | [] -> []
    | ext ->
        decode_bases ~src:"brem"
          ~names:(List.map (base_name s) ext)
          ~counts:(List.map (fun i -> Printf.sprintf "nb_%c" i) ext)
          ~tiles:(List.map (tile_of s) ext)
          ~init:(Builtin Block_flat)
  in
  (* -- per-internal step counts -- *)
  let step_counts =
    List.map
      (fun i ->
        ceil_div_decl (Printf.sprintf "ns_%c" i) (extent_name i) (tile_of s i))
      s.internals
    @ [
        Decl
          { ty = Int; const = true; name = num_steps_var;
            init =
              Some
                (match s.internals with
                | [] -> Int_lit 1
                | i :: rest ->
                    List.fold_left
                      (fun acc j -> Mul (acc, Var (Printf.sprintf "ns_%c" j)))
                      (Var (Printf.sprintf "ns_%c" i))
                      rest) };
      ]
  in
  (* -- thread decomposition -- *)
  let thread_decomp var bindings =
    if bindings = [] then []
    else
      [
        Scope
          (decompose_bindings ~bindings ~var ~prefix:"d"
          @ List.map
              (fun bd ->
                Assign
                  ( Lvar (Printf.sprintf "l_%c" bd.index),
                    Var (Printf.sprintf "d_%c" bd.index) ))
              bindings);
      ]
  in
  let thread_init =
    [
      Decl { ty = Int; const = true; name = "tx";
             init = Some (Builtin Thread_x) };
      Decl { ty = Int; const = true; name = "ty";
             init = Some (Builtin Thread_y) };
      Decl { ty = Int; const = true; name = tid_var;
             init = Some (Add (Mul (Var "ty", Int_lit (threads_x s)),
                               Var "tx")) };
    ]
    @ List.map
        (fun bd ->
          Decl { ty = Int; const = false;
                 name = Printf.sprintf "l_%c" bd.index; init = None })
        (s.tbx @ s.tby)
    @ thread_decomp "tx" s.tbx
    @ thread_decomp "ty" s.tby
  in
  let acc_init =
    [
      For
        {
          var = "i"; start = Int_lit 0; bound = Int_lit (rx * ry);
          step = Int_lit 1; unroll = true;
          body = [ Assign (Larr ("r_C", Var "i"), Scalar_zero) ];
        };
    ]
  in
  (* -- step bases decoded from the serial step counter.  Only the staging
     phase consumes the internal bases, so under a pipelined schema the
     decode moves wholesale into [stage_setup], driven by the index of the
     tile being prefetched rather than the tile being computed. -- *)
  let decode_internal_bases ~init =
    match s.internals with
    | [] -> []
    | ints ->
        decode_bases ~src:"srem"
          ~names:(List.map (base_name s) ints)
          ~counts:(List.map (fun i -> Printf.sprintf "ns_%c" i) ints)
          ~tiles:(List.map (tile_of s) ints)
          ~init
  in
  let step_setup =
    if pipelined then [] else decode_internal_bases ~init:(Var "step")
  in
  let stage_setup =
    if pipelined then decode_internal_bases ~init:(Var stage_step_var) else []
  in
  (* The two-slab rotation: stage writes the half selected by [buf_stage],
     compute reads the half selected by [buf_comp] — disjoint halves of the
     doubled SMEM arrays, which is what lets the load of tile t+1 overlap
     the compute of tile t. *)
  let rotate buf_var stmts =
    if not pipelined then stmts
    else
      offset_array ~name:"s_A" ~offset:(Mul (Var buf_var, Int_lit slab_a))
        (offset_array ~name:"s_B" ~offset:(Mul (Var buf_var, Int_lit slab_b))
           stmts)
  in
  (* -- phase (1): cooperative staging -- *)
  let stage =
    rotate buf_stage_var
      [
        Comment
          (if pipelined then "(1) stage the next input slabs from GMEM to SMEM"
           else "(1) load input slabs from GMEM to SMEM");
        slab_load s a ~smem:"s_A" ~local_prefix:"la";
        slab_load s b ~smem:"s_B" ~local_prefix:"lb";
      ]
  in
  (* -- phases (2)+(3).  A coordinate inside a slab is: thread-local (l_i)
     for TB-mapped indices, register-local for REG-mapped indices, lk_i for
     internals, 0 for grid indices (slab dim 1). -- *)
  let coord_a ~reg_var i =
    if in_bindings s.tbx i then Var (Printf.sprintf "l_%c" i)
    else if in_bindings s.regx i then Var (local_name reg_var i)
    else if is_internal s i then Var (Printf.sprintf "lk_%c" i)
    else Int_lit 0
  in
  let coord_b ~reg_var i =
    if in_bindings s.tby i then Var (Printf.sprintf "l_%c" i)
    else if in_bindings s.regy i then Var (local_name reg_var i)
    else if is_internal s i then Var (Printf.sprintf "lk_%c" i)
    else Int_lit 0
  in
  let reg_load ~var ~bound ~bindings ~prefix ~reg ~smem_view ~smem ~coord =
    For
      {
        var; start = Int_lit 0; bound = Int_lit bound; step = Int_lit 1;
        unroll = true;
        body =
          decompose_bindings ~bindings ~var ~prefix
          @ [
              Assign
                ( Larr (reg, Var var),
                  Index (smem, smem_address s smem_view ~coord) );
            ];
      }
  in
  let compute =
    rotate buf_comp_var
    @@ (if Tc_gpu.Schema.mma s.schema then
          [
            Comment
              (Printf.sprintf
                 "MMA fragment compute (%s): the outer product below is the \
                  scalar semantics of the fragment tile"
                 (Tc_gpu.Precision.to_string s.precision));
          ]
        else [])
    @ [
      For
        {
          var = "kk"; start = Int_lit 0; bound = Int_lit tk; step = Int_lit 1;
          unroll = true;
          body =
            decompose_bindings ~bindings:s.tbk ~var:"kk" ~prefix:"lk"
            @ [
                Comment "(2) load register vectors from SMEM";
                reg_load ~var:"rx" ~bound:rx ~bindings:s.regx ~prefix:"ra"
                  ~reg:"r_A" ~smem_view:a ~smem:"s_A"
                  ~coord:(coord_a ~reg_var:"ra");
                reg_load ~var:"ry" ~bound:ry ~bindings:s.regy ~prefix:"rb"
                  ~reg:"r_B" ~smem_view:b ~smem:"s_B"
                  ~coord:(coord_b ~reg_var:"rb");
                Comment "(3) outer product";
                For
                  {
                    var = "ry"; start = Int_lit 0; bound = Int_lit ry;
                    step = Int_lit 1; unroll = true;
                    body =
                      [
                        For
                          {
                            var = "rx"; start = Int_lit 0; bound = Int_lit rx;
                            step = Int_lit 1; unroll = true;
                            body =
                              [
                                Fma
                                  {
                                    acc =
                                      Larr
                                        ( "r_C",
                                          Add (Mul (Var "ry", Int_lit rx),
                                               Var "rx") );
                                    a = Index ("r_A", Var "rx");
                                    b = Index ("r_B", Var "ry");
                                  };
                              ];
                          };
                      ];
                  };
              ];
        };
    ]
  in
  (* -- phase (4): the coordinate of an output index comes from its
     mapping -- *)
  let out_local i =
    if in_bindings s.tbx i || in_bindings s.tby i then
      Var (Printf.sprintf "l_%c" i)
    else if in_bindings s.regx i then Var (Printf.sprintf "ra_%c" i)
    else if in_bindings s.regy i then Var (Printf.sprintf "rb_%c" i)
    else Int_lit 0 (* grid *)
  in
  let store_guard =
    conj
      (List.map
         (fun i ->
           Lt (Add (Var (base_name s i), out_local i), Var (extent_name i)))
         c.indices)
  in
  let store_addr =
    sum
      (List.map
         (fun i ->
           Mul
             ( Cast (I64, Add (Var (base_name s i), out_local i)),
               Var (stride_name c i) ))
         c.indices)
  in
  let store =
    [
      Comment "(4) store the output tile from REG to GMEM";
      For
        {
          var = "ry"; start = Int_lit 0; bound = Int_lit ry; step = Int_lit 1;
          unroll = true;
          body =
            decompose_bindings ~bindings:s.regy ~var:"ry" ~prefix:"rb"
            @ [
                For
                  {
                    var = "rx"; start = Int_lit 0; bound = Int_lit rx;
                    step = Int_lit 1; unroll = true;
                    body =
                      decompose_bindings ~bindings:s.regx ~var:"rx"
                        ~prefix:"ra"
                      @ [
                          If
                            ( store_guard,
                              [
                                Assign
                                  ( Larr ("g_C", store_addr),
                                    Index
                                      ( "r_C",
                                        Add (Mul (Var "ry", Int_lit rx),
                                             Var "rx") ) );
                              ] );
                        ];
                  };
              ];
        };
    ]
  in
  let sf = Tc_gpu.Schema.smem_factor s.schema in
  {
    spec = s;
    smem =
      [
        { a_name = "s_A"; elems = sf * slab_a };
        { a_name = "s_B"; elems = sf * slab_b };
      ];
    regs = [ { a_name = "r_A"; elems = rx }; { a_name = "r_B"; elems = ry } ];
    acc = { a_name = "r_C"; elems = rx * ry };
    grid_setup;
    block_setup;
    step_counts;
    thread_init;
    acc_init;
    step_setup;
    stage_setup;
    stage;
    compute;
    store;
  }
