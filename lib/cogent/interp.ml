open Tc_tensor
open Tc_expr

(* Mixed-radix decomposition, first radix fastest:
   [decompose_into out 13 [|4;2;2|]] sets [out] to [|1;1;1|] since
   13 = 1 + 4*(1 + 2*1). *)
let decompose_into out lin radices =
  let r = ref lin in
  for k = 0 to Array.length radices - 1 do
    out.(k) <- !r mod radices.(k);
    r := !r / radices.(k)
  done

let ceil_div a b = (a + b - 1) / b
let product = Array.fold_left ( * ) 1

type counters = {
  mutable tx_lhs : float;
  mutable tx_rhs : float;
  mutable tx_out : float;
  mutable smem_bytes : float;
  mutable fma_padded : float;
  mutable fma_useful : float;
  mutable store_tx_block_max : float;
  mutable blocks : int;
  mutable steps : int;
}

let create_counters () =
  {
    tx_lhs = 0.0;
    tx_rhs = 0.0;
    tx_out = 0.0;
    smem_bytes = 0.0;
    fma_padded = 0.0;
    fma_useful = 0.0;
    store_tx_block_max = 0.0;
    blocks = 0;
    steps = 0;
  }

(* One axis as a walk sees it: its tile and extent, its stride in the
   tensor being walked, and where its chunk coordinate lives — slot
   [slot] of the block coordinates when [block], else of the step (TB_k)
   coordinates. *)
type dim = {
  index : Index.t;
  tile : int;
  extent : int;
  stride : int;
  block : bool;
  slot : int;
}

let coord d bcoords scoords =
  if d.block then bcoords.(d.slot) else scoords.(d.slot)

(* In-range width of [d]'s current tile: [tile] inside, less at a boundary. *)
let cut d bcoords scoords =
  min d.tile (d.extent - (coord d bcoords scoords * d.tile))

(* The per-plan schedule [execute] and [measure] share.  Blocks enumerate
   tbx, regx, tby, regy then grid chunks (tiled axes contribute
   ceil(N/T) chunks, grid axes N at tile 1); steps enumerate the tbk
   chunks.  Operands list their axes in layout order (FVI first) with
   tensor strides; the thread, register and grid groups carry output
   strides, [tbk] none. *)
type schedule = {
  plan : Plan.t;
  block_radices : int array;
  step_radices : int array;
  lhs : dim array;
  rhs : dim array;
  tbx : dim array;
  regx : dim array;
  tby : dim array;
  regy : dim array;
  grid : dim array;
  tbk : dim array;
}

let schedule (plan : Plan.t) =
  let problem = plan.Plan.problem and m = plan.Plan.mapping in
  let tiled = List.map (fun b -> (b.Mapping.index, b.Mapping.tile)) in
  let block_axes =
    tiled (m.Mapping.tbx @ m.Mapping.regx @ m.Mapping.tby @ m.Mapping.regy)
    @ List.map (fun i -> (i, 1)) m.Mapping.grid
  and step_axes = tiled m.Mapping.tbk in
  let extent = Problem.extent problem in
  let radices axes =
    Array.of_list (List.map (fun (i, tile) -> ceil_div (extent i) tile) axes)
  in
  let slots block =
    List.mapi (fun slot (i, tile) -> (i, (block, slot, tile)))
  in
  let located = slots true block_axes @ slots false step_axes in
  let dim stride index =
    match List.find_opt (fun (i, _) -> Index.equal i index) located with
    | None -> invalid_arg "Interp: foreign index"
    | Some (_, (block, slot, tile)) ->
        { index; tile; extent = extent index; stride; block; slot }
  in
  let operand shape =
    Array.of_list
      (List.map (fun i -> dim (Shape.stride shape i) i) (Shape.indices shape))
  in
  let out_shape = Problem.out_shape problem in
  let group ?(stride = Shape.stride out_shape) indices =
    Array.of_list (List.map (fun i -> dim (stride i) i) indices)
  in
  let bound = List.map (fun b -> b.Mapping.index) in
  {
    plan;
    block_radices = radices block_axes;
    step_radices = radices step_axes;
    lhs = operand (Problem.lhs_shape problem);
    rhs = operand (Problem.rhs_shape problem);
    tbx = group (bound m.Mapping.tbx);
    regx = group (bound m.Mapping.regx);
    tby = group (bound m.Mapping.tby);
    regy = group (bound m.Mapping.regy);
    grid = group m.Mapping.grid;
    tbk = group ~stride:(fun _ -> 0) (bound m.Mapping.tbk);
  }

(* Replay the emitted schedule's memory accesses block by block and tally
   hardware counters.  The walk is value-independent (addresses and guards
   only depend on the plan), so [execute] runs it once next to the data
   pass.  Loads follow the cooperative padded sweep of the generated CUDA
   (operand layout order, waves of [threads] lanes, guards masking
   out-of-range lanes); stores are one wave of the whole thread block per
   register coordinate; both are costed with {!Txcount.staged_sweep}. *)
let measure_into (c : counters) s =
  let mapping = s.plan.Plan.mapping and prec = s.plan.Plan.precision in
  let width = Mapping.threads_per_block mapping
  and ept = Tc_gpu.Precision.elems_per_transaction prec in
  let smem_step =
    float_of_int (Mapping.smem_elems mapping)
    *. float_of_int (Tc_gpu.Precision.bytes prec)
  in
  let fma_slots_step =
    float_of_int width
    *. float_of_int (Mapping.size_regx mapping)
    *. float_of_int (Mapping.size_regy mapping)
    *. float_of_int (Mapping.size_tbk mapping)
  in
  let threads = Array.append s.tbx s.tby in
  let bcoords = Array.make (Array.length s.block_radices) 0
  and scoords = Array.make (Array.length s.step_radices) 0 in
  let sweep dims =
    Txcount.staged_sweep ~width ~ept
      (Array.map
         (fun d ->
           let cut = cut d bcoords scoords in
           { Txcount.tile = d.tile; cut; stride = d.stride })
         dims)
  in
  let cuts dims =
    Array.fold_left (fun a d -> a * cut d bcoords scoords) 1 dims
  in
  let num_blocks = product s.block_radices
  and num_steps = product s.step_radices in
  for block = 0 to num_blocks - 1 do
    decompose_into bcoords block s.block_radices;
    let xcount = float_of_int (cuts s.tbx * cuts s.regx)
    and ycount = float_of_int (cuts s.tby * cuts s.regy) in
    for step = 0 to num_steps - 1 do
      decompose_into scoords step s.step_radices;
      c.tx_lhs <- c.tx_lhs +. float_of_int (sweep s.lhs);
      c.tx_rhs <- c.tx_rhs +. float_of_int (sweep s.rhs);
      c.smem_bytes <- c.smem_bytes +. smem_step;
      c.fma_padded <- c.fma_padded +. fma_slots_step;
      c.fma_useful <-
        c.fma_useful +. (xcount *. ycount *. float_of_int (cuts s.tbk))
    done;
    let block_tx = float_of_int (sweep threads * cuts s.regx * cuts s.regy) in
    c.tx_out <- c.tx_out +. block_tx;
    if block_tx > c.store_tx_block_max then c.store_tx_block_max <- block_tx
  done;
  c.blocks <- c.blocks + num_blocks;
  c.steps <- c.steps + num_steps

let measure (plan : Plan.t) =
  let c = create_counters () in
  measure_into c (schedule plan);
  c

let tiles = Array.map (fun d -> d.tile)

(* [offsets group strides bounds] maps each linear coordinate of a thread,
   register or step group (first axis fastest, radices = tiles) to the dot
   product of its multi-index with [strides], or to -1 when a coordinate
   reaches its bound: a store the boundary guard masks. *)
let offsets group strides bounds =
  let radices = tiles group in
  let coords = Array.make (Array.length group) 0 in
  Array.init (product radices) (fun lin ->
      decompose_into coords lin radices;
      let off = ref 0 and ok = ref true in
      Array.iteri
        (fun k x ->
          off := !off + (x * strides.(k));
          if x >= bounds.(k) then ok := false)
        coords;
      if !ok then !off else -1)

(* A slab holds one operand tile in the operand's own layout order, packed
   at tile extents.  [stage] fills it for the current (block, step): the
   in-range corner is copied with the FVI innermost, and the rest is zero
   (the emitted [ok ? load : 0.0] guard) whenever a boundary cuts it. *)
let slab_strides dims =
  let str = Array.make (Array.length dims) 1 in
  for k = 1 to Array.length dims - 1 do
    str.(k) <- str.(k - 1) * dims.(k - 1).tile
  done;
  str

let stage slab sstr data dims cuts bcoords scoords =
  let src = ref 0 and partial = ref false in
  Array.iteri
    (fun k d ->
      src := !src + (coord d bcoords scoords * d.tile * d.stride);
      cuts.(k) <- cut d bcoords scoords;
      if cuts.(k) < d.tile then partial := true)
    dims;
  (* A full tile overwrites every slab element; a cut one leaves stale
     values from the previous step outside its corner. *)
  if !partial then Array.fill slab 0 (Array.length slab) 0.0;
  let rec copy k dst src =
    let stride = dims.(k).stride in
    if k = 0 then
      for p = 0 to cuts.(0) - 1 do
        Array.unsafe_set slab (dst + p)
          (Array.unsafe_get data (src + (p * stride)))
      done
    else
      for p = 0 to cuts.(k) - 1 do
        copy (k - 1) (dst + (p * sstr.(k))) (src + (p * stride))
      done
  in
  copy (Array.length dims - 1) 0 !src

let execute ?counters (plan : Plan.t) ~lhs ~rhs =
  let s = schedule plan in
  Option.iter (fun c -> measure_into c s) counters;
  let problem = plan.Plan.problem in
  (* Resolve the canonicalization swap: [a] is the canonical lhs. *)
  let a, b =
    if (Problem.info problem).Classify.swapped then (rhs, lhs) else (lhs, rhs)
  in
  let check name want got =
    if not (Shape.equal want (Dense.shape got)) then
      invalid_arg
        (Format.asprintf "Interp: %s has shape %a, expected %a" name Shape.pp
           (Dense.shape got) Shape.pp want)
  in
  check "lhs input" (Problem.lhs_shape problem) a;
  check "rhs input" (Problem.rhs_shape problem) b;
  let out = Dense.create (Problem.out_shape problem) in
  let out_data = Dense.unsafe_data out in
  let sa = slab_strides s.lhs and sb = slab_strides s.rhs in
  let slab_a = Array.make (product (tiles s.lhs)) 0.0
  and slab_b = Array.make (product (tiles s.rhs)) 0.0 in
  let cuts_a = Array.make (Array.length s.lhs) 0
  and cuts_b = Array.make (Array.length s.rhs) 0 in
  (* Slab offsets of each thread, register and TB_k coordinate (grid axes
     sit at coordinate 0), so the inner product adds table entries. *)
  let slab_offsets operand sstr group =
    let slab_stride g =
      match Array.find_index (fun d -> Index.equal d.index g.index) operand with
      | Some k -> sstr.(k)
      | None -> invalid_arg "Interp: index missing from its operand"
    in
    offsets group (Array.map slab_stride group) (tiles group)
  in
  let tx_a = slab_offsets s.lhs sa s.tbx
  and rx_a = slab_offsets s.lhs sa s.regx
  and k_a = slab_offsets s.lhs sa s.tbk
  and ty_b = slab_offsets s.rhs sb s.tby
  and ry_b = slab_offsets s.rhs sb s.regy
  and k_b = slab_offsets s.rhs sb s.tbk in
  let size_tbx = Array.length tx_a
  and size_tby = Array.length ty_b
  and space_regx = Array.length rx_a
  and space_regy = Array.length ry_b in
  let regs = space_regx * space_regy in
  (* Per-thread register tiles: thread (tx, ty) owns
     acc.(((ty * size_tbx) + tx) * regs + (ry * space_regx) + rx). *)
  let acc = Array.make (size_tbx * size_tby * regs) 0.0 in
  let data_a = Dense.unsafe_data a and data_b = Dense.unsafe_data b in
  let bcoords = Array.make (Array.length s.block_radices) 0
  and scoords = Array.make (Array.length s.step_radices) 0 in
  for block = 0 to product s.block_radices - 1 do
    decompose_into bcoords block s.block_radices;
    Array.fill acc 0 (Array.length acc) 0.0;
    for step = 0 to product s.step_radices - 1 do
      decompose_into scoords step s.step_radices;
      stage slab_a sa data_a s.lhs cuts_a bcoords scoords;
      stage slab_b sb data_b s.rhs cuts_b bcoords scoords;
      (* The serial TB_k sweep with per-thread outer products. *)
      for kk = 0 to Array.length k_a - 1 do
        let ka = Array.unsafe_get k_a kk and kb = Array.unsafe_get k_b kk in
        for ty = 0 to size_tby - 1 do
          let tyb = Array.unsafe_get ty_b ty + kb in
          for tx = 0 to size_tbx - 1 do
            let txa = Array.unsafe_get tx_a tx + ka in
            let r0 = ((ty * size_tbx) + tx) * regs in
            for ry = 0 to space_regy - 1 do
              let bval =
                Array.unsafe_get slab_b (tyb + Array.unsafe_get ry_b ry)
              in
              if bval <> 0.0 then
                for rx = 0 to space_regx - 1 do
                  let aval =
                    Array.unsafe_get slab_a (txa + Array.unsafe_get rx_a rx)
                  in
                  let r = r0 + (ry * space_regx) + rx in
                  Array.unsafe_set acc r
                    (Array.unsafe_get acc r +. (aval *. bval))
                done
            done
          done
        done
      done
    done;
    (* Store the finalized register tiles with bounds guards. *)
    let corner o d = o + (coord d bcoords scoords * d.tile * d.stride) in
    let base =
      Array.fold_left (Array.fold_left corner) 0
        [| s.tbx; s.regx; s.tby; s.regy; s.grid |]
    in
    let store group =
      offsets group
        (Array.map (fun d -> d.stride) group)
        (Array.map (fun d -> cut d bcoords scoords) group)
    in
    let tx_g = store s.tbx
    and rx_g = store s.regx
    and ty_g = store s.tby
    and ry_g = store s.regy in
    for ty = 0 to size_tby - 1 do
      if ty_g.(ty) >= 0 then
        for tx = 0 to size_tbx - 1 do
          if tx_g.(tx) >= 0 then
            let r0 = ((ty * size_tbx) + tx) * regs in
            let o = base + ty_g.(ty) + tx_g.(tx) in
            for ry = 0 to space_regy - 1 do
              if ry_g.(ry) >= 0 then
                for rx = 0 to space_regx - 1 do
                  if rx_g.(rx) >= 0 then
                    out_data.(o + ry_g.(ry) + rx_g.(rx)) <-
                      acc.(r0 + (ry * space_regx) + rx)
                done
            done
        done
    done
  done;
  out
