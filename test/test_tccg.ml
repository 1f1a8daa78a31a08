open Tc_tensor
open Tc_expr
open Tc_tccg

let check = Alcotest.check
let fail = Alcotest.fail

let test_forty_eight_entries () =
  check Alcotest.int "48 entries" 48 (List.length Suite.all);
  List.iteri
    (fun k e ->
      check Alcotest.int "ids are 1..48 in order" (k + 1) e.Suite.id)
    Suite.all

let test_group_sizes () =
  check Alcotest.int "8 ML" 8 (List.length (Suite.by_group Suite.Ml));
  check Alcotest.int "3 AO-MO" 3 (List.length (Suite.by_group Suite.Ao_mo));
  check Alcotest.int "19 CCSD" 19 (List.length (Suite.by_group Suite.Ccsd));
  check Alcotest.int "9 SD1" 9 (List.length (Suite.by_group Suite.Ccsd_t_sd1));
  check Alcotest.int "9 SD2" 9 (List.length (Suite.by_group Suite.Ccsd_t_sd2))

let test_group_positions () =
  (* §V: ML are 1-8, AO-MO 9-11, CCSD 12-30, CCSD(T) 31-48 *)
  let group_of id = (List.nth Suite.all (id - 1)).Suite.group in
  check Alcotest.bool "1 is ML" true (group_of 1 = Suite.Ml);
  check Alcotest.bool "9 is AO-MO" true (group_of 9 = Suite.Ao_mo);
  check Alcotest.bool "12 is CCSD" true (group_of 12 = Suite.Ccsd);
  check Alcotest.bool "30 is CCSD" true (group_of 30 = Suite.Ccsd);
  check Alcotest.bool "31 is SD1" true (group_of 31 = Suite.Ccsd_t_sd1);
  check Alcotest.bool "48 is SD2" true (group_of 48 = Suite.Ccsd_t_sd2)

let test_paper_named_entries () =
  (* the two contractions the paper spells out *)
  check Alcotest.string "Eq. 1 is entry 12" "abcd-aebf-dfce"
    (List.nth Suite.all 11).Suite.expr;
  check Alcotest.string "SD2_1 string" "abcdef-gdab-efgc"
    Suite.sd2_1.Suite.expr;
  check Alcotest.int "SD2_1 is entry 40" 40 Suite.sd2_1.Suite.id

let test_all_entries_valid () =
  List.iter
    (fun e ->
      match Problem.of_string e.Suite.expr ~sizes:e.Suite.sizes with
      | Ok _ -> ()
      | Error m -> fail (Printf.sprintf "%s: %s" e.Suite.name m))
    Suite.all

let test_entries_distinct () =
  let exprs = List.map (fun e -> e.Suite.expr) Suite.all in
  let names = List.map (fun e -> e.Suite.name) Suite.all in
  let distinct l = List.sort_uniq String.compare l |> List.length in
  check Alcotest.int "expressions unique" 48 (distinct exprs);
  check Alcotest.int "names unique" 48 (distinct names)

let test_ccsdt_structure () =
  (* every CCSD(T) entry is 6D = 4D * 4D with one contraction index *)
  List.iter
    (fun e ->
      let p = Suite.problem e in
      let info = Problem.info p in
      check Alcotest.int
        (e.Suite.name ^ " externals")
        6
        (List.length info.Classify.externals);
      check Alcotest.int (e.Suite.name ^ " internals") 1
        (List.length info.Classify.internals))
    (Suite.by_group Suite.Ccsd_t_sd1 @ Suite.by_group Suite.Ccsd_t_sd2)

let test_ccsdt_occupied_virtual_split () =
  (* SD1 contracts over an occupied (small) index, SD2 over a virtual one *)
  List.iter
    (fun e ->
      let p = Suite.problem e in
      check Alcotest.int (e.Suite.name ^ " g extent") 16 (Problem.extent p 'g'))
    (Suite.by_group Suite.Ccsd_t_sd1);
  List.iter
    (fun e ->
      let p = Suite.problem e in
      check Alcotest.int (e.Suite.name ^ " g extent") 48 (Problem.extent p 'g'))
    (Suite.by_group Suite.Ccsd_t_sd2)

let test_ccsd_4d_cases () =
  (* §V: the 12th and 20th-30th benchmarks are 4D = 4D * 4D *)
  List.iter
    (fun id ->
      let e = List.nth Suite.all (id - 1) in
      let p = Suite.problem e in
      let info = Problem.info p in
      check Alcotest.int
        (Printf.sprintf "entry %d rank of lhs" id)
        4
        (List.length info.Classify.expr.Ast.lhs.Ast.indices);
      check Alcotest.int
        (Printf.sprintf "entry %d rank of rhs" id)
        4
        (List.length info.Classify.expr.Ast.rhs.Ast.indices))
    (12 :: List.init 11 (fun k -> 20 + k))

let test_find () =
  (match Suite.find "sd2_1" with
  | Some e -> check Alcotest.int "found" 40 e.Suite.id
  | None -> fail "sd2_1 not found");
  check Alcotest.bool "missing" true (Suite.find "nope" = None)

let test_scaled_problem () =
  let p = Suite.scaled_problem Suite.sd2_1 ~scale:0.125 in
  check Alcotest.int "a scaled" 2 (Problem.extent p 'a');
  check Alcotest.int "d scaled" 6 (Problem.extent p 'd')

(* Functional end-to-end at reduced size: every one of the 48 suite
   contractions computes correctly through COGENT's interpreter and through
   the TTGT pipeline. *)
let test_suite_functional_all () =
  List.iter
    (fun e ->
      let name = e.Suite.name in
      let p = Suite.scaled_problem e ~scale:0.125 in
      let info = Problem.info p in
      let orig = info.Classify.original in
      let shape_of l = Shape.of_indices ~sizes:(Problem.sizes p) l in
      let lhs = Dense.random ~seed:31 (shape_of orig.Ast.lhs.Ast.indices) in
      let rhs = Dense.random ~seed:32 (shape_of orig.Ast.rhs.Ast.indices) in
      let expected =
        Contract_ref.contract ~out_indices:info.Classify.externals lhs rhs
      in
      let plan = Gen.plan_of Cogent.Ctx.default p in
      let via_cogent = Cogent.Interp.execute plan ~lhs ~rhs in
      let via_ttgt = Tc_ttgt.Ttgt.execute p ~lhs ~rhs in
      if not (Dense.equal_approx ~tol:1e-9 expected via_cogent) then
        fail (name ^ ": interp mismatch");
      if not (Dense.equal_approx ~tol:1e-9 expected via_ttgt) then
        fail (name ^ ": ttgt mismatch"))
    Suite.all

let () =
  Alcotest.run "tccg"
    [
      ( "suite",
        [
          Alcotest.test_case "48 entries in figure order" `Quick
            test_forty_eight_entries;
          Alcotest.test_case "group cardinalities" `Quick test_group_sizes;
          Alcotest.test_case "group positions match §V" `Quick
            test_group_positions;
          Alcotest.test_case "paper-named entries" `Quick
            test_paper_named_entries;
          Alcotest.test_case "all entries valid" `Quick test_all_entries_valid;
          Alcotest.test_case "entries distinct" `Quick test_entries_distinct;
          Alcotest.test_case "CCSD(T) structure" `Quick test_ccsdt_structure;
          Alcotest.test_case "occupied/virtual split" `Quick
            test_ccsdt_occupied_virtual_split;
          Alcotest.test_case "4D=4Dx4D positions" `Quick test_ccsd_4d_cases;
          Alcotest.test_case "find" `Quick test_find;
          Alcotest.test_case "scaled problems" `Quick test_scaled_problem;
          Alcotest.test_case "all 48 entries functional (scaled)" `Slow
            test_suite_functional_all;
        ] );
    ]
