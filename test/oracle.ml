(* The materialized planner, kept as the reference the streamed
   [Cogent.Pipeline.search] is checked against: enumerate every
   configuration into a list (Algorithm 2), filter it with the §IV-A rules
   and the relaxation ladder, then cost and sort every survivor
   (Algorithm 3).  The rules come from [Prune.check], the costs from
   [Cost.total]; with the planner it shares only Algorithm 2's per-side
   packings ([Enumerate]), not its product, tables, tallies or heap. *)

open Tc_expr
open Cogent

module MSet = Set.Make (struct
  type t = Mapping.t

  let compare = Mapping.compare
end)

(* The Cartesian product of the two sides' packings and the TB_k
   packings, deduplicated through a set. *)
let enumerate problem =
  let info = Problem.info problem in
  let x_sides =
    Enumerate.enumerate_side problem ~fvi:(Some info.Classify.out_fvi)
      ~externals:info.Classify.lhs_externals
  in
  let y_sides =
    Enumerate.enumerate_side problem ~fvi:(Some info.Classify.rhs_fvi)
      ~externals:info.Classify.rhs_externals
  in
  let tbks = Enumerate.enumerate_tbk problem ~internals:info.Classify.internals in
  let used (side : Enumerate.side) =
    List.map (fun b -> b.Mapping.index) (side.Enumerate.tb @ side.Enumerate.reg)
  in
  let configs =
    List.concat_map
      (fun (x : Enumerate.side) ->
        List.concat_map
          (fun (y : Enumerate.side) ->
            let mapped = used x @ used y in
            let grid =
              List.filter
                (fun i -> not (List.mem i mapped))
                info.Classify.externals
            in
            List.map
              (fun tbk ->
                {
                  Mapping.tbx = x.Enumerate.tb;
                  regx = x.Enumerate.reg;
                  tby = y.Enumerate.tb;
                  regy = y.Enumerate.reg;
                  tbk;
                  grid;
                })
              tbks)
          y_sides)
      x_sides
  in
  MSet.elements (MSet.of_list configs)

(* The candidate space as the planner sees it: every coordinate of
   [Candidates], in lexicographic order. *)
let candidates problem =
  let c = Candidates.create problem in
  List.concat
    (List.init (Candidates.num_chunks c) (fun x ->
         List.concat
           (List.init (Candidates.num_y c) (fun y ->
                List.init (Candidates.num_tbk c) (fun k ->
                    Candidates.mapping c x y k)))))

(* Keep the configurations passing every rule; when none do, walk the
   relaxation ladder.  Reject tallies count the primary pass only. *)
let filter ?(performance = true) arch prec problem mappings =
  let tally = Array.make Prune.num_reasons 0 in
  let primary = Prune.checker ~performance arch prec problem in
  let strict =
    List.filter
      (fun m ->
        match Prune.check primary m with
        | Ok () -> true
        | Error r ->
            let k = Prune.reason_index r in
            tally.(k) <- tally.(k) + 1;
            false)
      mappings
  in
  let kept, relaxed, relax_attempts =
    if strict <> [] then (strict, false, 0)
    else
      let rec try_relax n = function
        | [] -> ([], true, n)
        | classes :: rest -> (
            let c = Prune.checker_of_classes classes arch prec problem in
            match List.filter (fun m -> Prune.check c m = Ok ()) mappings with
            | [] -> try_relax (n + 1) rest
            | l -> (l, true, n + 1))
      in
      try_relax 0 Prune.relax_attempts_classes
  in
  ( kept,
    Prune.stats_of_tally ~enumerated:(List.length mappings)
      ~kept:(List.length kept) ~relaxed ~relax_attempts tally )

(* Every configuration with its cost, ascending; ties broken by
   [Mapping.compare]. *)
let rank prec problem mappings =
  List.map (fun m -> (m, Cost.total prec problem m)) mappings
  |> List.sort (fun (m1, c1) (m2, c2) ->
         match Float.compare c1 c2 with 0 -> Mapping.compare m1 m2 | c -> c)

(* The whole materialized search, with [Pipeline.search]'s semantics:
   enumerate, filter, truncate to the search budget, rank, keep [topk]
   (all of them under a budget). *)
let search ?performance ?budget ~topk arch prec problem =
  let kept, stats = filter ?performance arch prec problem (enumerate problem) in
  let kept, degraded =
    match budget with
    | Some b when List.length kept > max 1 b ->
        (List.filteri (fun k _ -> k < max 1 b) kept, true)
    | _ -> (kept, false)
  in
  let ranked = rank prec problem kept in
  let ranked =
    match budget with
    | None -> List.filteri (fun k _ -> k < topk) ranked
    | Some _ -> ranked
  in
  (ranked, stats, degraded)
