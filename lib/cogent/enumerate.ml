open Tc_tensor
open Tc_expr

let targets_tb = [ 4; 8; 16 ]
let targets_reg = [ 1; 2; 4; 6; 8 ]

(* Greedy packing of (index, extent) candidates onto one dimension until the
   accumulated product reaches [target]; the index that crosses the target
   gets a clamped tile (Algorithm 2, lines 10-45).  [first] is the forced
   head (the output FVI for TB_x, the rhs FVI for TB_y when external). *)
type packed = { bindings : Mapping.binding list; reached : bool }

let pack ~target ~first ~candidates =
  let add (v, prev, acc, reached) (index, extent) =
    if reached then (v, prev, acc, reached)
    else
      let v = v * extent in
      if v >= target then
        let tile = if v > target then max 1 (target / prev) else extent in
        (v, prev, { Mapping.index; tile } :: acc, true)
      else (v, prev * extent, { Mapping.index; tile = extent } :: acc, false)
  in
  let init = (1, 1, [], false) in
  let state = match first with None -> init | Some f -> add init f in
  let _, _, acc, reached = List.fold_left add state candidates in
  { bindings = List.rev acc; reached }

(* Rotation s_idx of Algorithm 2 line 3: try candidates from position s_idx
   to the end, then from 0 to s_idx - 1. *)
let rotations l =
  match l with
  | [] | [ _ ] -> [ l ]
  | _ ->
      let n = List.length l in
      List.init n (fun s ->
          let tail = List.filteri (fun k _ -> k >= s) l in
          let head = List.filteri (fun k _ -> k < s) l in
          tail @ head)

let pack_greedy ~target ~first ~candidates =
  let p = pack ~target ~first ~candidates in
  (p.bindings, p.reached)

(* First occurrence wins; packings are keyed on their binding lists. *)
let dedup_packings ps =
  let tbl = Hashtbl.create 16 in
  List.filter
    (fun p ->
      if Hashtbl.mem tbl p.bindings then false
      else begin
        Hashtbl.add tbl p.bindings ();
        true
      end)
    ps

(* Partial configuration for one side: TB bindings plus REG bindings. *)
type side = { tb : Mapping.binding list; reg : Mapping.binding list }

let with_extents problem l =
  List.map (fun i -> (i, Problem.extent problem i)) l

let enumerate_tb problem ~first ~candidates =
  let candidates = with_extents problem candidates in
  let first = Option.map (fun i -> (i, Problem.extent problem i)) first in
  let all =
    List.concat_map
      (fun target ->
        List.map (fun order -> pack ~target ~first ~candidates:order)
          (rotations candidates))
      targets_tb
  in
  (* Packings that exhaust the candidates below the target are kept too:
     on small tensors they are the only complete assignments, and on larger
     ones they add a few small-block candidates for the cost model to
     judge. *)
  dedup_packings all

let enumerate_reg problem ~candidates =
  let candidates = with_extents problem candidates in
  let all =
    List.concat_map
      (fun target ->
        if target = 1 then [ { bindings = []; reached = true } ]
        else
          List.map (fun order -> pack ~target ~first:None ~candidates:order)
            (rotations candidates))
      targets_reg
  in
  dedup_packings all

let enumerate_side problem ~fvi ~externals =
  let first, rest =
    match fvi with
    | Some f when List.exists (Index.equal f) externals ->
        (Some f, List.filter (fun i -> not (Index.equal i f)) externals)
    | _ -> (None, externals)
  in
  let tbs = enumerate_tb problem ~first ~candidates:rest in
  List.concat_map
    (fun tb ->
      let used =
        List.fold_left
          (fun s b -> Idxset.add b.Mapping.index s)
          Idxset.empty tb.bindings
      in
      let remaining =
        List.filter (fun i -> not (Idxset.mem i used)) externals
      in
      List.map
        (fun reg -> { tb = tb.bindings; reg = reg.bindings })
        (enumerate_reg problem ~candidates:remaining))
    tbs

let enumerate_tbk problem ~internals =
  let candidates = with_extents problem internals in
  let packings =
    if internals = [] then [ { bindings = []; reached = true } ]
    else
      dedup_packings
        (List.concat_map
           (fun target ->
             List.map
               (fun order -> pack ~target ~first:None ~candidates:order)
               (rotations candidates))
           targets_tb)
  in
  (* Every internal index must appear in tbk; the ones the packing did not
     reach iterate across steps with tile 1. *)
  List.map
    (fun p ->
      let used =
        List.fold_left
          (fun s b -> Idxset.add b.Mapping.index s)
          Idxset.empty p.bindings
      in
      let leftover = List.filter (fun i -> not (Idxset.mem i used)) internals in
      p.bindings
      @ List.map (fun index -> { Mapping.index; tile = 1 }) leftover)
    packings

let naive_space_size problem =
  let info = Problem.info problem in
  let n_ext = List.length info.Classify.externals in
  let n_int = List.length info.Classify.internals in
  (* §IV's arithmetic for Eq. 1: |mapping| = 4^4 * 2 (four external indices
     with 4 dimension choices, two internal indices) and |tilesize| = 6^5,
     for a total of 3,981,312. *)
  let pow b e = Float.pow (float_of_int b) (float_of_int e) in
  pow 4 n_ext
  *. pow 2 (max 0 (n_int - 1))
  *. pow 6 (max 0 (n_ext + n_int - 1))
