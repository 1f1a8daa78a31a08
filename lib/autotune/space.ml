open Tc_tensor
open Tc_expr

type dim = Tbx | Tby | Grid

type gene = { index : Index.t; dim : dim; tile : int }
type genome = { externals : gene list; internals : gene list }

let tile_menu = [ 1; 2; 4; 8; 16; 32 ]

let choose st l = List.nth l (Random.State.int st (List.length l))

(* Dimensions an external index may occupy in the TC-era schedule space:
   thread-block X for lhs externals, thread-block Y for rhs externals, or
   the grid.  The polyhedral mapper of that generation promoted operands to
   shared memory but had no outer-product register-tiling scheme, so the
   register dimensions are absent from its space — one of the structural
   advantages of COGENT's domain-specific schema (§II). *)
let dims_for info i =
  if List.exists (Index.equal i) info.Classify.lhs_externals then
    [ Tbx; Grid ]
  else [ Tby; Grid ]

let random_tile st problem i =
  let extent = Problem.extent problem i in
  min extent (choose st tile_menu)

let random st problem =
  let info = Problem.info problem in
  let externals =
    List.map
      (fun index ->
        let dim = choose st (dims_for info index) in
        let tile = if dim = Grid then 1 else random_tile st problem index in
        { index; dim; tile })
      info.Classify.externals
  in
  let internals =
    List.map
      (fun index ->
        { index; dim = Grid; tile = random_tile st problem index })
      info.Classify.internals
  in
  { externals; internals }

let mutate st problem g =
  let info = Problem.info problem in
  let n_ext = List.length g.externals and n_int = List.length g.internals in
  let target = Random.State.int st (n_ext + n_int) in
  if target < n_ext then
    let externals =
      List.mapi
        (fun k gene ->
          if k <> target then gene
          else
            let dim = choose st (dims_for info gene.index) in
            let tile =
              if dim = Grid then 1 else random_tile st problem gene.index
            in
            { gene with dim; tile })
        g.externals
    in
    { g with externals }
  else
    let t = target - n_ext in
    let internals =
      List.mapi
        (fun k gene ->
          if k <> t then gene
          else { gene with tile = random_tile st problem gene.index })
        g.internals
    in
    { g with internals }

let crossover st a b =
  let pick x y = if Random.State.bool st then x else y in
  {
    externals = List.map2 pick a.externals b.externals;
    internals = List.map2 pick a.internals b.internals;
  }

let decode problem g =
  let select d =
    List.filter_map
      (fun gene ->
        if gene.dim = d then
          Some { Cogent.Mapping.index = gene.index; tile = gene.tile }
        else None)
      g.externals
  in
  let mapping =
    {
      Cogent.Mapping.tbx = select Tbx;
      regx = [];
      tby = select Tby;
      regy = [];
      tbk =
        List.map
          (fun gene -> { Cogent.Mapping.index = gene.index; tile = gene.tile })
          g.internals;
      grid =
        List.filter_map
          (fun gene -> if gene.dim = Grid then Some gene.index else None)
          g.externals;
    }
  in
  match Cogent.Mapping.validate problem mapping with
  | Ok () -> Some mapping
  | Error _ -> None

let size problem =
  let info = Problem.info problem in
  let menu = float_of_int (List.length tile_menu) in
  let ext = float_of_int (List.length info.Classify.externals) in
  let int_ = float_of_int (List.length info.Classify.internals) in
  Float.pow (2.0 *. menu) ext *. Float.pow menu int_
