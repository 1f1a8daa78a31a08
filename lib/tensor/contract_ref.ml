let analyse ~out_indices a b =
  let sa = Dense.shape a and sb = Dense.shape b in
  let ia = Index.Set.of_list (Shape.indices sa)
  and ib = Index.Set.of_list (Shape.indices sb)
  and ic = Index.Set.of_list out_indices in
  if not (Index.distinct out_indices) then
    invalid_arg "Contract_ref: duplicate output index";
  let internals = Index.Set.inter ia ib in
  if not (Index.Set.is_empty (Index.Set.inter internals ic)) then
    invalid_arg "Contract_ref: a contraction index appears in the output";
  let externals = Index.Set.union (Index.Set.diff ia ib) (Index.Set.diff ib ia) in
  if not (Index.Set.equal externals ic) then
    invalid_arg
      "Contract_ref: output indices must be exactly the non-shared input \
       indices";
  Index.Set.iter
    (fun i ->
      if Shape.extent sa i <> Shape.extent sb i then
        invalid_arg
          (Printf.sprintf "Contract_ref: extent mismatch on index %c" i))
    internals;
  let extent i =
    if Shape.mem sa i then Shape.extent sa i else Shape.extent sb i
  in
  (Index.Set.elements internals, extent)

let contract ~out_indices a b =
  let internals, extent = analyse ~out_indices a b in
  let out_shape = Shape.make (List.map (fun i -> (i, extent i)) out_indices) in
  let out = Dense.create out_shape in
  (* Precompute each loop index's linear stride in every operand (0 when
     the index does not appear), so the walk advances plain offsets
     instead of rebuilding an [Index.Map] per element. *)
  let stride_in t =
    let idx = Shape.indices (Dense.shape t) and st = Dense.strides t in
    fun i ->
      let rec go k = function
        | [] -> 0
        | j :: rest -> if Index.equal j i then st.(k) else go (k + 1) rest
      in
      go 0 idx
  in
  let sa = stride_in a and sb = stride_in b and so = stride_in out in
  let ext =
    Array.of_list (List.map (fun i -> (extent i, sa i, sb i, so i)) out_indices)
  in
  let int_ =
    Array.of_list (List.map (fun i -> (extent i, sa i, sb i)) internals)
  in
  let n_ext = Array.length ext and n_int = Array.length int_ in
  (* Odometer over external positions; inner odometer over internals,
     which fixes the floating-point accumulation order.  Every offset is
     in range by construction ([analyse] checked the extents), so the
     inner loop reads unchecked. *)
  let rec loop_int k off_a off_b acc =
    if k = n_int then
      acc +. (Dense.unsafe_get a off_a *. Dense.unsafe_get b off_b)
    else
      let e, da, db = int_.(k) in
      let acc = ref acc in
      for v = 0 to e - 1 do
        acc := loop_int (k + 1) (off_a + (v * da)) (off_b + (v * db)) !acc
      done;
      !acc
  in
  let rec loop_ext k off_a off_b off_out =
    if k = n_ext then Dense.unsafe_set out off_out (loop_int 0 off_a off_b 0.0)
    else
      let e, da, db, dc = ext.(k) in
      for v = 0 to e - 1 do
        loop_ext (k + 1)
          (off_a + (v * da))
          (off_b + (v * db))
          (off_out + (v * dc))
      done
  in
  loop_ext 0 0 0 0;
  out

let flop_count ~out_indices a b =
  let internals, extent = analyse ~out_indices a b in
  let all = out_indices @ internals in
  2 * List.fold_left (fun acc i -> acc * extent i) 1 all
