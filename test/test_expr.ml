open Tc_tensor
open Tc_expr

let check = Alcotest.check
let fail = Alcotest.fail

let indices_t = Alcotest.testable Index.list_pp (List.for_all2 Index.equal)

let parse_ok s =
  match Parser.parse s with
  | Ok ast -> ast
  | Error e -> fail (Format.asprintf "parse of %S failed: %a" s Parser.pp_error e)

let parse_err s =
  match Parser.parse s with
  | Ok _ -> fail (Printf.sprintf "parse of %S unexpectedly succeeded" s)
  | Error e -> e

(* ---- Parser ---- *)

let test_parse_tccg () =
  let ast = parse_ok "abcd-aebf-dfce" in
  check indices_t "out" (Index.list_of_string "abcd") ast.Ast.out.Ast.indices;
  check indices_t "lhs" (Index.list_of_string "aebf") ast.Ast.lhs.Ast.indices;
  check indices_t "rhs" (Index.list_of_string "dfce") ast.Ast.rhs.Ast.indices

let test_parse_einstein () =
  let ast = parse_ok "C[a,b,c,d] = A[a,e,b,f] * B[d,f,c,e]" in
  check Alcotest.string "out name" "C" ast.Ast.out.Ast.name;
  check Alcotest.string "lhs name" "A" ast.Ast.lhs.Ast.name;
  check indices_t "rhs" (Index.list_of_string "dfce") ast.Ast.rhs.Ast.indices

let test_parse_einstein_no_commas () =
  let ast = parse_ok "T3[abcdef] = T2[gdab] * V[efgc]" in
  check indices_t "out" (Index.list_of_string "abcdef") ast.Ast.out.Ast.indices;
  check Alcotest.string "lhs name" "T2" ast.Ast.lhs.Ast.name

let test_parse_whitespace_and_semicolon () =
  let ast = parse_ok "  C[i,j]=A[i,k]  *B[k,j] ; " in
  check indices_t "out" [ 'i'; 'j' ] ast.Ast.out.Ast.indices

let test_parse_equivalence () =
  let a = parse_ok "abcd-aebf-dfce" in
  let b = parse_ok "C[a,b,c,d] = A[a,e,b,f] * B[d,f,c,e]" in
  check Alcotest.bool "two syntaxes agree" true (Ast.equal a b)

let test_tccg_roundtrip () =
  let s = "abcdef-gdab-efgc" in
  check Alcotest.string "roundtrip" s (Ast.tccg_string (parse_ok s))

let test_parse_errors () =
  ignore (parse_err "abcd-aebf");
  (* two groups only *)
  ignore (parse_err "abcd--dfce");
  (* empty group *)
  ignore (parse_err "abcd-aeBf-dfce");
  (* invalid char *)
  ignore (parse_err "C[a] = A[a,b]");
  (* missing * B *)
  ignore (parse_err "C[a] = A[a1] * B[a]");
  (* digit in index list *)
  ignore (parse_err "C[] = A[a] * B[a]");
  (* empty index list *)
  ignore (parse_err "C[a] = A[ab] * B[b] trailing")

let test_parse_error_position () =
  let e = parse_err "abcd-ae!f-dfce" in
  check Alcotest.int "position of bad char" 7 e.Parser.position

(* ---- Classify ---- *)

let analyse s = Classify.analyse_exn (parse_ok s)

let test_classify_eq1 () =
  let info = analyse "abcd-aebf-dfce" in
  check indices_t "externals" (Index.list_of_string "abcd") info.Classify.externals;
  check indices_t "internals" (Index.list_of_string "ef") info.Classify.internals;
  check indices_t "lhs externals" (Index.list_of_string "ab")
    info.Classify.lhs_externals;
  check indices_t "rhs externals" (Index.list_of_string "dc")
    info.Classify.rhs_externals;
  check Alcotest.char "out fvi" 'a' info.Classify.out_fvi;
  check Alcotest.char "lhs fvi" 'a' info.Classify.lhs_fvi;
  check Alcotest.char "rhs fvi" 'd' info.Classify.rhs_fvi;
  check Alcotest.bool "not swapped" false info.Classify.swapped

let test_classify_swap () =
  (* out FVI 'a' lives in the second input: canonicalization must swap *)
  let info = analyse "abcd-be-aecd" in
  check Alcotest.bool "swapped" true info.Classify.swapped;
  check indices_t "canonical lhs" (Index.list_of_string "aecd")
    info.Classify.expr.Ast.lhs.Ast.indices;
  check indices_t "original preserved" (Index.list_of_string "be")
    info.Classify.original.Ast.lhs.Ast.indices

let test_classify_roles () =
  let info = analyse "abcd-aebf-dfce" in
  check Alcotest.bool "a external" true (Classify.role info 'a' = Classify.External);
  check Alcotest.bool "e internal" true (Classify.role info 'e' = Classify.Internal);
  match Classify.role info 'z' with
  | exception Not_found -> ()
  | _ -> fail "foreign index accepted"

let test_classify_reuse () =
  let info = analyse "abcd-aebf-dfce" in
  (* an internal index is a reuse direction for the output *)
  check Alcotest.bool "e reuses C" true (Classify.reuse_tensor info 'e' = Classify.Out);
  (* a appears in lhs and out, so it is a reuse direction for the rhs *)
  check Alcotest.bool "a reuses B" true (Classify.reuse_tensor info 'a' = Classify.Rhs);
  check Alcotest.bool "d reuses A" true (Classify.reuse_tensor info 'd' = Classify.Lhs)

let test_classify_every_index_in_two_tensors () =
  (* c appears in all three -> invalid *)
  (match Classify.analyse (parse_ok "abc-acd-dbc") with
  | Error _ -> ()
  | Ok _ -> fail "index in three tensors accepted");
  (* z appears only in lhs -> invalid *)
  match Classify.analyse (parse_ok "ab-azc-cb") with
  | Error _ -> ()
  | Ok _ -> fail "index in one tensor accepted"

let test_classify_duplicate_in_tensor () =
  match Classify.analyse (parse_ok "ab-aac-cb") with
  | Error _ -> ()
  | Ok _ -> fail "duplicate index within a tensor accepted"

let test_all_indices_order () =
  let info = analyse "abcd-aebf-dfce" in
  check indices_t "externals then internals" (Index.list_of_string "abcdef")
    (Classify.all_indices info)

let classify_accepts_generated =
  QCheck.Test.make ~count:200 ~name:"generated contractions always classify"
    Gen.case_arbitrary (fun c ->
      let info = Problem.info c.Gen.problem in
      (* the canonical lhs must contain the output FVI *)
      List.exists (Index.equal info.Classify.out_fvi)
        info.Classify.expr.Ast.lhs.Ast.indices)

let classify_partition =
  QCheck.Test.make ~count:200
    ~name:"externals+internals partition all indices" Gen.case_arbitrary
    (fun c ->
      let info = Problem.info c.Gen.problem in
      let all = Classify.all_indices info in
      Index.distinct all
      && List.length all
         = List.length info.Classify.externals
           + List.length info.Classify.internals)

(* ---- Sizes ---- *)

let test_sizes_parse () =
  match Sizes.parse "a=16, b=24 ,c=8" with
  | Error e -> fail e
  | Ok s ->
      check Alcotest.int "a" 16 (Sizes.extent s 'a');
      check Alcotest.int "b" 24 (Sizes.extent s 'b');
      check Alcotest.int "product" (16 * 24 * 8)
        (Sizes.product s [ 'a'; 'b'; 'c' ])

let test_sizes_parse_errors () =
  let err s = match Sizes.parse s with Error _ -> () | Ok _ -> fail s in
  err "a=0";
  err "a=x";
  err "ab=3";
  err "a=3,a=4";
  err "a"

let test_sizes_uniform_covers () =
  let s = Sizes.uniform [ 'a'; 'b' ] 7 in
  check Alcotest.bool "covers" true (Sizes.covers s [ 'a'; 'b' ]);
  check Alcotest.bool "does not cover c" false (Sizes.covers s [ 'c' ])

(* ---- Idxset ---- *)

let test_idxset_basics () =
  let open Idxset in
  let s = of_list (Index.list_of_string "aebf") in
  check Alcotest.bool "mem e" true (mem 'e' s);
  check Alcotest.bool "not mem z" false (mem 'z' s);
  check Alcotest.int "cardinal" 4 (cardinal s);
  check indices_t "to_list sorted" (Index.list_of_string "abef") (to_list s);
  check Alcotest.bool "remove" false (mem 'e' (remove 'e' s));
  check Alcotest.bool "empty" true (is_empty empty);
  check Alcotest.int "slot a" 0 (slot 'a');
  check Alcotest.int "slot z" 25 (slot 'z')

let idxset_matches_index_set =
  QCheck.Test.make ~count:200 ~name:"Idxset agrees with Index.Set algebra"
    QCheck.(
      pair
        (small_list (map (fun n -> Char.chr (97 + (abs n mod 26))) int))
        (small_list (map (fun n -> Char.chr (97 + (abs n mod 26))) int)))
    (fun (la, lb) ->
      let a = Idxset.of_list la and b = Idxset.of_list lb in
      let sa = Index.Set.of_list la and sb = Index.Set.of_list lb in
      Idxset.to_list (Idxset.union a b) = Index.Set.elements (Index.Set.union sa sb)
      && Idxset.to_list (Idxset.inter a b)
         = Index.Set.elements (Index.Set.inter sa sb)
      && Idxset.to_list (Idxset.diff a b)
         = Index.Set.elements (Index.Set.diff sa sb)
      && Idxset.cardinal a = Index.Set.cardinal sa
      && Idxset.subset a b = Index.Set.subset sa sb
      && Idxset.disjoint a b = Index.Set.disjoint sa sb
      && Idxset.equal a b = Index.Set.equal sa sb)

(* ---- Problem ---- *)

let test_problem_flops () =
  let p =
    Problem.of_string_exn "ab-ac-cb" ~sizes:[ ('a', 3); ('b', 4); ('c', 5) ]
  in
  check (Alcotest.float 0.0) "2*m*n*k" (2.0 *. 60.0) (Problem.flops p)

(* Sizes that bind no valid problem are an [Error], never an exception:
   a missing index, a duplicated index and a non-positive extent. *)
let test_problem_missing_extent () =
  List.iter
    (fun (what, sizes) ->
      match Problem.of_string "ab-ac-cb" ~sizes with
      | Error _ -> ()
      | Ok _ -> fail (what ^ " accepted")
      | exception e -> fail (what ^ " raised " ^ Printexc.to_string e))
    [
      ("missing extent", [ ('a', 3); ('b', 4) ]);
      ("duplicate extent", [ ('a', 3); ('a', 4); ('b', 4); ('c', 5) ]);
      ("zero extent", [ ('a', 3); ('b', 0); ('c', 5) ]);
    ]

let test_problem_shapes_canonical () =
  let p =
    Problem.of_string_exn "abcd-be-aecd"
      ~sizes:[ ('a', 2); ('b', 3); ('c', 4); ('d', 5); ('e', 6) ]
  in
  (* swapped: canonical lhs is aecd *)
  check indices_t "lhs shape order" (Index.list_of_string "aecd")
    (Shape.indices (Problem.lhs_shape p));
  check Alcotest.int "out elems" (2 * 3 * 4 * 5) (Problem.out_elems p)

let () =
  Alcotest.run "tc_expr"
    [
      ( "parser",
        [
          Alcotest.test_case "tccg form" `Quick test_parse_tccg;
          Alcotest.test_case "einstein form" `Quick test_parse_einstein;
          Alcotest.test_case "einstein without commas" `Quick
            test_parse_einstein_no_commas;
          Alcotest.test_case "whitespace and semicolon" `Quick
            test_parse_whitespace_and_semicolon;
          Alcotest.test_case "syntaxes agree" `Quick test_parse_equivalence;
          Alcotest.test_case "tccg roundtrip" `Quick test_tccg_roundtrip;
          Alcotest.test_case "rejects malformed input" `Quick test_parse_errors;
          Alcotest.test_case "error position" `Quick test_parse_error_position;
        ] );
      ( "classify",
        [
          Alcotest.test_case "Eq. 1 analysis" `Quick test_classify_eq1;
          Alcotest.test_case "lhs/rhs canonicalization swap" `Quick
            test_classify_swap;
          Alcotest.test_case "roles" `Quick test_classify_roles;
          Alcotest.test_case "reuse tensor property (§II)" `Quick
            test_classify_reuse;
          Alcotest.test_case "two-of-three occurrence rule" `Quick
            test_classify_every_index_in_two_tensors;
          Alcotest.test_case "duplicate within a tensor" `Quick
            test_classify_duplicate_in_tensor;
          Alcotest.test_case "all_indices order" `Quick test_all_indices_order;
          Gen.to_alcotest classify_accepts_generated;
          Gen.to_alcotest classify_partition;
        ] );
      ( "sizes",
        [
          Alcotest.test_case "parse" `Quick test_sizes_parse;
          Alcotest.test_case "parse errors" `Quick test_sizes_parse_errors;
          Alcotest.test_case "uniform/covers" `Quick test_sizes_uniform_covers;
        ] );
      ( "idxset",
        [
          Alcotest.test_case "basics" `Quick test_idxset_basics;
          Gen.to_alcotest idxset_matches_index_set;
        ] );
      ( "problem",
        [
          Alcotest.test_case "flops" `Quick test_problem_flops;
          Alcotest.test_case "missing extent" `Quick test_problem_missing_extent;
          Alcotest.test_case "canonical shapes" `Quick
            test_problem_shapes_canonical;
        ] );
    ]
