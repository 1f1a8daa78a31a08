open Tc_tensor
open Tc_expr

type t = {
  externals : Index.t list;
  x_sides : Enumerate.side array;
  y_sides : Enumerate.side array;
  tbks : Mapping.binding list array;
  x_used : Idxset.t array;
  y_used : Idxset.t array;
}

let side_used (s : Enumerate.side) =
  List.fold_left
    (fun acc b -> Idxset.add b.Mapping.index acc)
    Idxset.empty
    (s.Enumerate.tb @ s.Enumerate.reg)

(* (tb, reg) pairs ordered exactly as Mapping.compare orders the full
   configurations they expand into: tb first, then reg. *)
let compare_side (a : Enumerate.side) (b : Enumerate.side) =
  match Mapping.compare_bindings a.Enumerate.tb b.Enumerate.tb with
  | 0 -> Mapping.compare_bindings a.Enumerate.reg b.Enumerate.reg
  | c -> c

let create problem =
  let info = Problem.info problem in
  let x_sides =
    Enumerate.enumerate_side problem ~fvi:(Some info.Classify.out_fvi)
      ~externals:info.Classify.lhs_externals
  in
  let y_sides =
    Enumerate.enumerate_side problem ~fvi:(Some info.Classify.rhs_fvi)
      ~externals:info.Classify.rhs_externals
  in
  (* Completed TB_k lists are the one product component with duplicates
     (tile-1 completion can merge distinct packings); sides are distinct
     as (tb, reg) pairs.  After sort_uniq the triple product is therefore
     duplicate-free, and nested ascending iteration yields full
     configurations in strictly increasing Mapping.compare order (a
     property test locks this against the materialized enumeration). *)
  let tbks =
    List.sort_uniq Mapping.compare_bindings
      (Enumerate.enumerate_tbk problem ~internals:info.Classify.internals)
  in
  let x_sides = Array.of_list (List.sort_uniq compare_side x_sides) in
  let y_sides = Array.of_list (List.sort_uniq compare_side y_sides) in
  {
    externals = info.Classify.externals;
    x_sides;
    y_sides;
    tbks = Array.of_list tbks;
    x_used = Array.map side_used x_sides;
    y_used = Array.map side_used y_sides;
  }

let count t =
  Array.length t.x_sides * Array.length t.y_sides * Array.length t.tbks

let num_chunks t = Array.length t.x_sides
let num_y t = Array.length t.y_sides
let num_tbk t = Array.length t.tbks
let x_side t xi = t.x_sides.(xi)
let y_side t yi = t.y_sides.(yi)
let tbk t ti = t.tbks.(ti)

let mapping t xi yi ti =
  let x = t.x_sides.(xi) and y = t.y_sides.(yi) in
  let used = Idxset.union t.x_used.(xi) t.y_used.(yi) in
  {
    Mapping.tbx = x.Enumerate.tb;
    regx = x.Enumerate.reg;
    tby = y.Enumerate.tb;
    regy = y.Enumerate.reg;
    tbk = t.tbks.(ti);
    grid = List.filter (fun i -> not (Idxset.mem i used)) t.externals;
  }
