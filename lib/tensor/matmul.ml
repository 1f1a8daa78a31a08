let check ~m ~n ~k ~a ~b ~c =
  if m <= 0 || n <= 0 || k <= 0 then invalid_arg "Matmul: non-positive size";
  if Array.length a < m * k then invalid_arg "Matmul: A too small";
  if Array.length b < k * n then invalid_arg "Matmul: B too small";
  if Array.length c < m * n then invalid_arg "Matmul: C too small"

let gemm ~m ~n ~k ~a ~b ~c =
  check ~m ~n ~k ~a ~b ~c;
  for j = 0 to n - 1 do
    for l = 0 to k - 1 do
      let blj = b.((l + (k * j))) in
      if blj <> 0.0 then
        let a_col = m * l and c_col = m * j in
        for i = 0 to m - 1 do
          c.(i + c_col) <- c.(i + c_col) +. (a.(i + a_col) *. blj)
        done
    done
  done

let matmul a b =
  let sa = Dense.shape a and sb = Dense.shape b in
  if Shape.rank sa <> 2 || Shape.rank sb <> 2 then
    invalid_arg "Matmul.matmul: operands must be rank 2";
  match (Shape.to_list sa, Shape.to_list sb) with
  | [ (i, m); (ka, k) ], [ (kb, k'); (j, n) ] ->
      if not (Index.equal ka kb) then
        invalid_arg "Matmul.matmul: inner index names differ";
      if k <> k' then invalid_arg "Matmul.matmul: inner extents differ";
      if Index.equal i j then
        invalid_arg "Matmul.matmul: outer indices must differ";
      let out = Dense.create (Shape.make [ (i, m); (j, n) ]) in
      gemm ~m ~n ~k ~a:(Dense.unsafe_data a) ~b:(Dense.unsafe_data b)
        ~c:(Dense.unsafe_data out);
      out
  | _ -> assert false
