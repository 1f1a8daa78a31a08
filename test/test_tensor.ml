open Tc_tensor

let check = Alcotest.check
let fail = Alcotest.fail

let shape l = Shape.make l

(* ---- Index ---- *)

let test_index_validity () =
  check Alcotest.bool "a is valid" true (Index.is_valid 'a');
  check Alcotest.bool "z is valid" true (Index.is_valid 'z');
  check Alcotest.bool "A is invalid" false (Index.is_valid 'A');
  check Alcotest.bool "0 is invalid" false (Index.is_valid '0');
  check Alcotest.bool "- is invalid" false (Index.is_valid '-')

let test_index_of_char_raises () =
  match Index.of_char 'Q' with
  | exception Invalid_argument _ -> ()
  | _ -> fail "expected Invalid_argument"

let test_index_list_roundtrip () =
  let s = "aebf" in
  check Alcotest.string "roundtrip" s
    (Index.list_to_string (Index.list_of_string s))

let test_index_distinct () =
  check Alcotest.bool "abc distinct" true (Index.distinct [ 'a'; 'b'; 'c' ]);
  check Alcotest.bool "aba not distinct" false (Index.distinct [ 'a'; 'b'; 'a' ]);
  check Alcotest.bool "empty distinct" true (Index.distinct [])

(* ---- Shape ---- *)

let test_shape_basics () =
  let s = shape [ ('a', 3); ('b', 4); ('c', 5) ] in
  check Alcotest.int "rank" 3 (Shape.rank s);
  check Alcotest.int "numel" 60 (Shape.numel s);
  check Alcotest.int "extent b" 4 (Shape.extent s 'b');
  check (Alcotest.list Alcotest.char) "indices" [ 'a'; 'b'; 'c' ]
    (Shape.indices s);
  check Alcotest.char "fvi" 'a' (Shape.fvi s)

let test_shape_strides () =
  let s = shape [ ('a', 3); ('b', 4); ('c', 5) ] in
  check Alcotest.int "stride a (FVI)" 1 (Shape.stride s 'a');
  check Alcotest.int "stride b" 3 (Shape.stride s 'b');
  check Alcotest.int "stride c" 12 (Shape.stride s 'c')

let test_shape_position () =
  let s = shape [ ('x', 2); ('y', 2) ] in
  check Alcotest.int "position x" 0 (Shape.position s 'x');
  check Alcotest.int "position y" 1 (Shape.position s 'y');
  match Shape.position s 'z' with
  | exception Not_found -> ()
  | _ -> fail "expected Not_found"

let test_shape_rejects_duplicates () =
  match shape [ ('a', 2); ('a', 3) ] with
  | exception Invalid_argument _ -> ()
  | _ -> fail "expected Invalid_argument"

let test_shape_rejects_nonpositive () =
  match shape [ ('a', 0) ] with
  | exception Invalid_argument _ -> ()
  | _ -> fail "expected Invalid_argument"

let test_shape_of_indices_missing () =
  let sizes = Tc_tensor.Index.Map.singleton 'a' 4 in
  match Shape.of_indices ~sizes [ 'a'; 'b' ] with
  | exception Invalid_argument _ -> ()
  | _ -> fail "expected Invalid_argument"

(* ---- Dense ---- *)

let test_dense_get_set () =
  let t = Dense.create (shape [ ('a', 3); ('b', 2) ]) in
  Dense.set t [| 2; 1 |] 7.5;
  check (Alcotest.float 0.0) "get back" 7.5 (Dense.get t [| 2; 1 |]);
  check (Alcotest.float 0.0) "other still zero" 0.0 (Dense.get t [| 0; 0 |])

let test_dense_layout_fvi_first () =
  (* element (i, j) lives at offset i + Na * j *)
  let t = Dense.create (shape [ ('a', 3); ('b', 2) ]) in
  Dense.set t [| 1; 1 |] 9.0;
  check (Alcotest.float 0.0) "flat offset 1 + 3*1 = 4" 9.0
    (Dense.unsafe_data t).(4)

let test_dense_bounds () =
  let t = Dense.create (shape [ ('a', 3) ]) in
  (match Dense.get t [| 3 |] with
  | exception Invalid_argument _ -> ()
  | _ -> fail "out of range accepted");
  match Dense.get t [| 0; 0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> fail "wrong rank accepted"

let test_dense_init_iteri () =
  let s = shape [ ('a', 2); ('b', 3) ] in
  let t = Dense.init s (fun pos -> float_of_int ((10 * pos.(0)) + pos.(1))) in
  let count = ref 0 in
  Dense.iteri t (fun pos v ->
      incr count;
      check (Alcotest.float 0.0) "value matches position"
        (float_of_int ((10 * pos.(0)) + pos.(1)))
        v);
  check Alcotest.int "visited all" 6 !count

let test_dense_random_deterministic () =
  let s = shape [ ('a', 5); ('b', 5) ] in
  let a = Dense.random ~seed:7 s and b = Dense.random ~seed:7 s in
  check Alcotest.bool "same seed, same tensor" true (Dense.equal_approx a b);
  let c = Dense.random ~seed:8 s in
  check Alcotest.bool "different seed differs" false (Dense.equal_approx a c)

let test_dense_max_abs_diff () =
  let s = shape [ ('a', 2) ] in
  let a = Dense.init s (fun p -> float_of_int p.(0)) in
  let b = Dense.init s (fun p -> float_of_int p.(0) +. 0.25) in
  check (Alcotest.float 1e-12) "diff" 0.25 (Dense.max_abs_diff a b)

let test_dense_map2_shape_mismatch () =
  let a = Dense.create (shape [ ('a', 2) ]) in
  let b = Dense.create (shape [ ('a', 3) ]) in
  match Dense.map2 ( +. ) a b with
  | exception Invalid_argument _ -> ()
  | _ -> fail "shape mismatch accepted"

(* ---- Permute ---- *)

let test_permute_identity () =
  let s = shape [ ('a', 3); ('b', 4) ] in
  let t = Dense.random ~seed:1 s in
  let p = Permute.permute ~dst_indices:[ 'a'; 'b' ] t in
  check Alcotest.bool "identity permute equal" true (Dense.equal_approx t p)

let test_permute_transpose_2d () =
  let t = Dense.init (shape [ ('a', 3); ('b', 4) ]) (fun p ->
      float_of_int ((10 * p.(0)) + p.(1))) in
  let p = Permute.permute ~dst_indices:[ 'b'; 'a' ] t in
  check Alcotest.char "new fvi" 'b' (Shape.fvi (Dense.shape p));
  for i = 0 to 2 do
    for j = 0 to 3 do
      check (Alcotest.float 0.0) "transposed element"
        (Dense.get t [| i; j |])
        (Dense.get p [| j; i |])
    done
  done

let test_permute_rejects_non_permutation () =
  let t = Dense.create (shape [ ('a', 2); ('b', 2) ]) in
  match Permute.permute ~dst_indices:[ 'a'; 'c' ] t with
  | exception Invalid_argument _ -> ()
  | _ -> fail "accepted non-permutation"

let test_permute_is_identity () =
  Alcotest.(check bool)
    "same order" true
    (Permute.is_identity ~src:[ 'a'; 'b' ] ~dst:[ 'a'; 'b' ]);
  Alcotest.(check bool)
    "swapped" false
    (Permute.is_identity ~src:[ 'a'; 'b' ] ~dst:[ 'b'; 'a' ])

let test_permute_roundtrip () =
  let t = Dense.random ~seed:3 (shape [ ('a', 4); ('b', 3); ('c', 2) ]) in
  let p = Permute.permute ~dst_indices:[ 'c'; 'a'; 'b' ] t in
  let back = Permute.permute ~dst_indices:[ 'a'; 'b'; 'c' ] p in
  check Alcotest.bool "roundtrip" true (Dense.equal_approx t back)

(* ---- Matmul ---- *)

let test_gemm_small () =
  (* [1 3; 2 4] * [5 7; 6 8] (column-major 2x2) *)
  let a = [| 1.; 2.; 3.; 4. |] and b = [| 5.; 6.; 7.; 8. |] in
  let c = Array.make 4 0.0 in
  Matmul.gemm ~m:2 ~n:2 ~k:2 ~a ~b ~c;
  check (Alcotest.float 0.0) "c00" 23.0 c.(0);
  check (Alcotest.float 0.0) "c10" 34.0 c.(1);
  check (Alcotest.float 0.0) "c01" 31.0 c.(2);
  check (Alcotest.float 0.0) "c11" 46.0 c.(3)

let test_gemm_accumulates () =
  let a = [| 1.0 |] and b = [| 1.0 |] in
  let c = [| 5.0 |] in
  Matmul.gemm ~m:1 ~n:1 ~k:1 ~a ~b ~c;
  check (Alcotest.float 0.0) "C += A*B" 6.0 c.(0)

let test_matmul_named () =
  let a = Dense.random ~seed:1 (shape [ ('i', 3); ('k', 4) ]) in
  let b = Dense.random ~seed:2 (shape [ ('k', 4); ('j', 5) ]) in
  let c = Matmul.matmul a b in
  let expected = Contract_ref.contract ~out_indices:[ 'i'; 'j' ] a b in
  check Alcotest.bool "matmul == einsum" true (Dense.equal_approx c expected)

let test_matmul_rejects_bad_shapes () =
  let a = Dense.create (shape [ ('i', 3); ('k', 4) ]) in
  let b = Dense.create (shape [ ('k', 5); ('j', 5) ]) in
  match Matmul.matmul a b with
  | exception Invalid_argument _ -> ()
  | _ -> fail "inner mismatch accepted"

(* ---- Contract_ref ---- *)

let test_contract_matrix_case () =
  (* C[i,j] = A[i,k] B[k,j] equals matmul *)
  let a = Dense.random ~seed:4 (shape [ ('i', 4); ('k', 3) ]) in
  let b = Dense.random ~seed:5 (shape [ ('k', 3); ('j', 2) ]) in
  let c = Contract_ref.contract ~out_indices:[ 'i'; 'j' ] a b in
  check Alcotest.bool "agree with matmul" true
    (Dense.equal_approx c (Matmul.matmul a b))

let test_contract_outer_product () =
  let a = Dense.init (shape [ ('i', 2) ]) (fun p -> float_of_int (p.(0) + 1)) in
  let b = Dense.init (shape [ ('j', 3) ]) (fun p -> float_of_int (p.(0) + 1)) in
  let c = Contract_ref.contract ~out_indices:[ 'i'; 'j' ] a b in
  check (Alcotest.float 0.0) "c(1,2)" 6.0 (Dense.get c [| 1; 2 |])

let test_contract_eq1_shape () =
  (* the paper's Eq. 1 at toy size *)
  let sizes = Index.Map.of_seq (List.to_seq [ ('a',2);('b',3);('c',2);('d',3);('e',2);('f',2) ]) in
  let a = Dense.random ~seed:1 (Shape.of_indices ~sizes [ 'a';'e';'b';'f' ]) in
  let b = Dense.random ~seed:2 (Shape.of_indices ~sizes [ 'd';'f';'c';'e' ]) in
  let c = Contract_ref.contract ~out_indices:[ 'a';'b';'c';'d' ] a b in
  check (Alcotest.list Alcotest.int) "shape" [ 2;3;2;3 ]
    (Shape.extents (Dense.shape c))

let test_contract_rejects_bad_output () =
  let a = Dense.create (shape [ ('i', 2); ('k', 2) ]) in
  let b = Dense.create (shape [ ('k', 2); ('j', 2) ]) in
  (* k is internal, must not appear in output *)
  (match Contract_ref.contract ~out_indices:[ 'i'; 'k' ] a b with
  | exception Invalid_argument _ -> ()
  | _ -> fail "internal in output accepted");
  (* j missing from output *)
  match Contract_ref.contract ~out_indices:[ 'i' ] a b with
  | exception Invalid_argument _ -> ()
  | _ -> fail "missing external accepted"

let test_contract_rejects_extent_mismatch () =
  let a = Dense.create (shape [ ('i', 2); ('k', 2) ]) in
  let b = Dense.create (shape [ ('k', 3); ('j', 2) ]) in
  match Contract_ref.contract ~out_indices:[ 'i'; 'j' ] a b with
  | exception Invalid_argument _ -> ()
  | _ -> fail "extent mismatch accepted"

let test_flop_count () =
  let a = Dense.create (shape [ ('i', 4); ('k', 5) ]) in
  let b = Dense.create (shape [ ('k', 5); ('j', 6) ]) in
  check Alcotest.int "2*m*n*k" (2 * 4 * 5 * 6)
    (Contract_ref.flop_count ~out_indices:[ 'i'; 'j' ] a b)

let contract_commutes =
  QCheck.Test.make ~count:80 ~name:"contract A B == contract B A"
    Gen.case_arbitrary (fun c ->
      let info = Tc_expr.Problem.info c.Gen.problem in
      let out = info.Tc_expr.Classify.externals in
      let ab = Contract_ref.contract ~out_indices:out c.Gen.lhs c.Gen.rhs in
      let ba = Contract_ref.contract ~out_indices:out c.Gen.rhs c.Gen.lhs in
      Dense.equal_approx ~tol:1e-9 ab ba)

let () =
  Alcotest.run "tc_tensor"
    [
      ( "index",
        [
          Alcotest.test_case "validity" `Quick test_index_validity;
          Alcotest.test_case "of_char raises" `Quick test_index_of_char_raises;
          Alcotest.test_case "list roundtrip" `Quick test_index_list_roundtrip;
          Alcotest.test_case "distinct" `Quick test_index_distinct;
        ] );
      ( "shape",
        [
          Alcotest.test_case "basics" `Quick test_shape_basics;
          Alcotest.test_case "strides" `Quick test_shape_strides;
          Alcotest.test_case "position" `Quick test_shape_position;
          Alcotest.test_case "rejects duplicates" `Quick
            test_shape_rejects_duplicates;
          Alcotest.test_case "rejects non-positive" `Quick
            test_shape_rejects_nonpositive;
          Alcotest.test_case "of_indices missing extent" `Quick
            test_shape_of_indices_missing;
        ] );
      ( "dense",
        [
          Alcotest.test_case "get/set" `Quick test_dense_get_set;
          Alcotest.test_case "FVI-first layout" `Quick
            test_dense_layout_fvi_first;
          Alcotest.test_case "bounds checking" `Quick test_dense_bounds;
          Alcotest.test_case "init/iteri" `Quick test_dense_init_iteri;
          Alcotest.test_case "random determinism" `Quick
            test_dense_random_deterministic;
          Alcotest.test_case "max_abs_diff" `Quick test_dense_max_abs_diff;
          Alcotest.test_case "map2 shape mismatch" `Quick
            test_dense_map2_shape_mismatch;
        ] );
      ( "permute",
        [
          Alcotest.test_case "identity" `Quick test_permute_identity;
          Alcotest.test_case "2d transpose" `Quick test_permute_transpose_2d;
          Alcotest.test_case "rejects non-permutation" `Quick
            test_permute_rejects_non_permutation;
          Alcotest.test_case "is_identity" `Quick test_permute_is_identity;
          Alcotest.test_case "roundtrip" `Quick test_permute_roundtrip;
        ] );
      ( "matmul",
        [
          Alcotest.test_case "2x2" `Quick test_gemm_small;
          Alcotest.test_case "accumulates into C" `Quick test_gemm_accumulates;
          Alcotest.test_case "named matmul" `Quick test_matmul_named;
          Alcotest.test_case "rejects bad shapes" `Quick
            test_matmul_rejects_bad_shapes;
        ] );
      ( "contract_ref",
        [
          Alcotest.test_case "matrix case" `Quick test_contract_matrix_case;
          Alcotest.test_case "outer product" `Quick test_contract_outer_product;
          Alcotest.test_case "Eq. 1 shape" `Quick test_contract_eq1_shape;
          Alcotest.test_case "rejects bad output" `Quick
            test_contract_rejects_bad_output;
          Alcotest.test_case "rejects extent mismatch" `Quick
            test_contract_rejects_extent_mismatch;
          Alcotest.test_case "flop count" `Quick test_flop_count;
          Gen.to_alcotest contract_commutes;
        ] );
    ]
