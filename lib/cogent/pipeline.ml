open Tc_gpu
open Tc_expr

type outcome = {
  ranked : (Mapping.t * float) list;
  stats : Prune.stats;
  bound_aborted : int;
  degraded : bool;
}

let no_mapping =
  { Mapping.tbx = []; regx = []; tby = []; regy = []; tbk = []; grid = [] }

(* Bounded best-heap: the K cheapest candidates under the total order
   (cost, key), where a candidate's key is its packed coordinate
   [((x * num_y) + y) * num_tbk + k].  Coordinate order is Mapping.compare
   order ({!Candidates}), so this is the order (cost, Mapping.compare) of
   the ranking — without building a mapping per entrant.  A max-heap on
   that order keeps the current worst resident at the root, which is the
   branch-and-bound cutoff the evaluator aborts against.  Because the
   order is total, the retained set — and hence [to_sorted] — is
   independent of insertion order, so per-chunk heaps merged in any
   grouping equal one sequential heap. *)
module Topk = struct
  type t = { cap : int; mutable n : int; keys : int array; costs : float array }

  let create cap =
    let cap = max 1 cap in
    { cap; n = 0; keys = Array.make cap 0; costs = Array.make cap 0.0 }

  (* The final ascending order on (cost, key) pairs. *)
  let compare_ranked (k1, c1) (k2, c2) =
    match Float.compare c1 c2 with 0 -> Int.compare k1 k2 | c -> c

  (* [after c1 k1 c2 k2]: (c1, k1) ranks strictly after (c2, k2).  Inlined,
     so the costs stay unboxed. *)
  let[@inline] after c1 k1 c2 k2 =
    match Float.compare c1 c2 with 0 -> k1 > k2 | c -> c > 0

  let worse t i j = after t.costs.(i) t.keys.(i) t.costs.(j) t.keys.(j)

  let[@inline] bound t = if t.n < t.cap then infinity else t.costs.(0)

  let swap t i j =
    let k = t.keys.(i) and c = t.costs.(i) in
    t.keys.(i) <- t.keys.(j);
    t.costs.(i) <- t.costs.(j);
    t.keys.(j) <- k;
    t.costs.(j) <- c

  let rec sift_up t k =
    if k > 0 then
      let p = (k - 1) / 2 in
      if worse t k p then begin
        swap t k p;
        sift_up t p
      end

  let rec sift_down t k =
    let l = (2 * k) + 1 and r = (2 * k) + 2 in
    let largest = ref k in
    if l < t.n && worse t l !largest then largest := l;
    if r < t.n && worse t r !largest then largest := r;
    if !largest <> k then begin
      swap t k !largest;
      sift_down t !largest
    end

  let insert t key cost =
    if t.n < t.cap then begin
      t.keys.(t.n) <- key;
      t.costs.(t.n) <- cost;
      t.n <- t.n + 1;
      sift_up t (t.n - 1);
      true
    end
    else if after t.costs.(0) t.keys.(0) cost key then begin
      t.keys.(0) <- key;
      t.costs.(0) <- cost;
      sift_down t 0;
      true
    end
    else false

  (* The residents, unordered. *)
  let entries t = List.init t.n (fun i -> (t.keys.(i), t.costs.(i)))
  let to_sorted t = List.sort compare_ranked (entries t)
end

(* One chunk's worth of streamed work; merged sequentially in chunk order
   by [Tc_par.Pool.map_fold]. *)
type chunk_out = {
  c_tally : int array;
  c_kept : int;
  c_aborted : int;
  c_top : (int * float) list;  (* heap mode: chunk top-K keys, unordered *)
  c_fed : (int * float) list;
      (* feed mode: first <= maxfeed survivor keys and costs, in order *)
}

(* Feed mode (search budget set) costs the first [maxfeed] survivors in
   candidate order and ranks them all; heap mode streams every survivor
   through the bounded evaluator. *)
type mode = Heap of int | Feed of int

(* Per-search factor tables.  A candidate is a coordinate (x, y, k) of the
   product X-side x Y-side x TB_k, and every term of the §IV-A rules and
   of Algorithm 3 depends on at most two of the three: the lhs tile on
   (x, k), the rhs tile on (y, k), threads/registers/blocks on (x, y).
   One [side] per input holds its per-packing terms, and per (packing,
   k) pair — at [p * num_tbk + k] — that input's contiguous run and FVI
   tile. *)
type side = {
  tb : int array;  (* TB size *)
  reg : int array;  (* REG size *)
  blocks : int array;  (* prod ceil(extent / tile) over the input's externals *)
  out_tile : int array;  (* tile of the output FVI; 1 when not on this side *)
  run : int array;  (* (p, k): Cost.contiguous_run of the input's tile *)
  fvi_tile : int array;  (* (p, k): tile of the input's FVI *)
}

type tables = {
  x : side;
  y : side;
  store_run : int array;  (* Cost.store_run per X-side packing *)
  tbk_size : int array;  (* TB_k size per packing *)
  steps : float array;  (* Mapping.num_steps per TB_k packing *)
}

let ceil_div a b = (a + b - 1) / b

let tables cands problem =
  let info = Problem.info problem in
  let extents = Array.make 26 1 in
  List.iter
    (fun i -> extents.(Idxset.slot i) <- Problem.extent problem i)
    (Classify.all_indices info);
  let extent i = extents.(Idxset.slot i) in
  let nk = Candidates.num_tbk cands in
  let tbks = Array.init nk (Candidates.tbk cands) in
  let product f l = List.fold_left (fun acc x -> acc * f x) 1 l in
  let tile_size = product (fun b -> b.Mapping.tile) in
  (* Tiles of one input's indices, by slot: the side's externals (1 =
     grid) and the internals of the current TB_k packing. *)
  let side n side_of ~externals ~indices ~fvi =
    let tiles = Array.make 26 1 in
    let tile i = tiles.(Idxset.slot i) in
    let bind =
      List.iter (fun b -> tiles.(Idxset.slot b.Mapping.index) <- b.Mapping.tile)
    in
    let t =
      {
        tb = Array.make n 0;
        reg = Array.make n 0;
        blocks = Array.make n 0;
        out_tile = Array.make n 0;
        run = Array.make (n * nk) 0;
        fvi_tile = Array.make (n * nk) 0;
      }
    in
    for p = 0 to n - 1 do
      let s : Enumerate.side = side_of cands p in
      List.iter (fun i -> tiles.(Idxset.slot i) <- 1) externals;
      bind s.Enumerate.tb;
      bind s.Enumerate.reg;
      t.tb.(p) <- tile_size s.Enumerate.tb;
      t.reg.(p) <- tile_size s.Enumerate.reg;
      t.blocks.(p) <- product (fun i -> ceil_div (extent i) (tile i)) externals;
      t.out_tile.(p) <- tile info.Classify.out_fvi;
      for k = 0 to nk - 1 do
        bind tbks.(k);
        t.run.((p * nk) + k) <- Cost.run_of ~tile ~extent indices;
        t.fvi_tile.((p * nk) + k) <- tile fvi
      done
    done;
    t
  in
  let expr = info.Classify.expr in
  {
    x =
      side (Candidates.num_chunks cands) Candidates.x_side
        ~externals:info.Classify.lhs_externals ~indices:expr.Ast.lhs.Ast.indices
        ~fvi:info.Classify.lhs_fvi;
    y =
      side (Candidates.num_y cands) Candidates.y_side
        ~externals:info.Classify.rhs_externals ~indices:expr.Ast.rhs.Ast.indices
        ~fvi:info.Classify.rhs_fvi;
    (* The store run reads only TB_x tiles. *)
    store_run =
      Array.init (Candidates.num_chunks cands) (fun p ->
          Cost.store_run problem
            { no_mapping with tbx = (Candidates.x_side cands p).Enumerate.tb });
    tbk_size = Array.map tile_size tbks;
    steps =
      Array.map
        (fun l ->
          float_of_int
            (product
               (fun b -> ceil_div (extent b.Mapping.index) b.Mapping.tile)
               l))
        tbks;
  }

(* The lhs or rhs term of Cost.transactions at (p, k): the tile
   transactions of that input (its elements are the side's TB and REG
   tiles times the TB_k tiles), scaled by steps and blocks in Cost's
   float order. *)
let[@inline] load_cost s ~width ~size_k ~ept ~steps ~fblocks p pk =
  float_of_int
    (Cost.tile_transactions ~width
       ~elems:(s.tb.(p) * s.reg.(p) * size_k)
       ~run:s.run.(pk) ~ept)
  *. steps *. fblocks

(* One work unit: a fixed slice of the chunk (X-side) range, scanned with
   one heap.  The slice boundaries depend only on the chunk count — never
   on the job count — so unit outputs (and the bound each unit's heap
   tightens as it goes) are reproducible at any parallelism.  Candidates
   are visited in ascending (x, y, k) order — ascending key, ascending
   {!Mapping.compare} — and enter the heap as keys; the cost is the float
   expression of {!Cost.transactions}, term by term.  Heap mode aborts it
   as soon as a partial sum exceeds the heap bound (each term is >= blocks
   >= 1). *)
let scan_chunks tabs checker prec mode ~tallying ~lo ~hi =
  let tally = Array.make Prune.num_reasons 0 in
  let kept = ref 0 and aborted = ref 0 and n_fed = ref 0 in
  let fed = ref [] in
  let x = tabs.x and y = tabs.y and nk = Array.length tabs.tbk_size in
  let ny = Array.length y.tb in
  (* Like the search's own heap, a slice heap never holds more than the
     slice's candidates. *)
  let heap =
    match mode with
    | Heap cap -> Topk.create (min cap ((hi - lo) * ny * nk))
    | Feed _ -> Topk.create 1
  in
  let ept = Precision.elems_per_transaction prec in
  let bytes = Precision.bytes prec in
  for xi = lo to hi - 1 do
    for yi = 0 to ny - 1 do
      let width = x.tb.(xi) * y.tb.(yi) in
      let regx = x.reg.(xi) and regy = y.reg.(yi) in
      let smem_row = (x.tb.(xi) * regx) + (y.tb.(yi) * regy) in
      let regs = Prune.regs_of_elems prec ((regx * regy) + regx + regy) in
      let blocks = x.blocks.(xi) * y.blocks.(yi) in
      let fblocks = float_of_int blocks in
      let out_tile = x.out_tile.(xi) * y.out_tile.(yi) in
      let out_tx =
        regx * regy
        * Cost.sweep_transactions ~width ~run:tabs.store_run.(xi) ~ept
      in
      let key0 = ((xi * ny) + yi) * nk in
      for k = 0 to nk - 1 do
        let xk = (xi * nk) + k and yk = (yi * nk) + k in
        let r =
          Prune.verdict checker ~threads:width
            ~smem:(smem_row * tabs.tbk_size.(k) * bytes)
            ~regs ~blocks ~out_tile ~lhs_tile:x.fvi_tile.(xk)
            ~rhs_tile:y.fvi_tile.(yk)
        in
        if r >= 0 then begin
          if tallying then tally.(r) <- tally.(r) + 1
        end
        else begin
          incr kept;
          let steps = tabs.steps.(k) and size_k = tabs.tbk_size.(k) in
          match mode with
          | Feed maxfeed ->
              if !n_fed < maxfeed then begin
                let total =
                  load_cost x ~width ~size_k ~ept ~steps ~fblocks xi xk
                  +. load_cost y ~width ~size_k ~ept ~steps ~fblocks yi yk
                  +. (float_of_int out_tx *. fblocks)
                in
                fed := (key0 + k, total) :: !fed;
                incr n_fed
              end
          | Heap _ ->
              let bound = Topk.bound heap in
              let lhs = load_cost x ~width ~size_k ~ept ~steps ~fblocks xi xk in
              if lhs > bound then incr aborted
              else
                let rhs =
                  load_cost y ~width ~size_k ~ept ~steps ~fblocks yi yk
                in
                let partial = lhs +. rhs in
                if partial > bound then incr aborted
                else
                  let total = partial +. (float_of_int out_tx *. fblocks) in
                  if total > bound then incr aborted
                  else if not (Topk.insert heap (key0 + k) total) then
                    incr aborted
        end
      done
    done
  done;
  {
    c_tally = tally;
    c_kept = !kept;
    c_aborted = !aborted;
    c_top = Topk.entries heap;
    c_fed = List.rev !fed;
  }

(* Fixed fan-out width: chunk slices per search.  A constant (not the
   job count!) so that slice boundaries — and with them bound-abort
   tallies — are identical however many workers execute them. *)
let work_units = 16

let search ?(performance = true) ?budget ~topk arch prec problem =
  let cands = Candidates.create problem in
  let tabs = tables cands problem in
  let enumerated = Candidates.count cands in
  let nchunks = Candidates.num_chunks cands in
  let units = min work_units nchunks in
  (* Slice [0, nchunks) into [units] contiguous ranges, sized as evenly
     as integer division allows. *)
  let slices =
    List.init units (fun u ->
        (nchunks * u / units, nchunks * (u + 1) / units))
  in
  let maxfeed = Option.map (fun b -> max 1 b) budget in
  (* The heap never holds more than every candidate, so [topk:max_int]
     keeps every survivor: the heap never fills before the last one, and
     nothing is bound-aborted. *)
  let mode =
    match maxfeed with
    | Some f -> Feed f
    | None -> Heap (max 1 (min topk enumerated))
  in
  (* One pass over the whole candidate stream with a given rule set.
     Workers are pure: each work unit gets its own heap and only reads the
     shared tables, and metrics/trace emission stays on the calling domain
     after the merge. *)
  let pass checker ~tallying =
    let tally = Array.make Prune.num_reasons 0 in
    let heap =
      match mode with Heap cap -> Topk.create cap | Feed _ -> Topk.create 1
    in
    let kept, aborted, _, fed_rev =
      Tc_par.Pool.map_fold slices
        ~map:(fun (lo, hi) ->
          scan_chunks tabs checker prec mode ~tallying ~lo ~hi)
        ~init:(0, 0, 0, [])
        ~fold:(fun (kept, aborted, n_fed, fed_rev) c ->
          if tallying then
            Array.iteri (fun k n -> tally.(k) <- tally.(k) + n) c.c_tally;
          List.iter (fun (key, cost) -> ignore (Topk.insert heap key cost))
            c.c_top;
          let n_fed, fed_rev =
            match mode with
            | Heap _ -> (n_fed, fed_rev)
            | Feed maxfeed ->
                List.fold_left
                  (fun (n, acc) e ->
                    if n < maxfeed then (n + 1, e :: acc) else (n, acc))
                  (n_fed, fed_rev) c.c_fed
          in
          (kept + c.c_kept, aborted + c.c_aborted, n_fed, fed_rev))
    in
    (tally, kept, aborted, heap, List.rev fed_rev)
  in
  let primary_tally, primary_kept, primary_aborted, primary_heap, primary_fed =
    pass (Prune.checker ~performance arch prec problem) ~tallying:true
  in
  let kept, aborted, heap, fed, relaxed, relax_attempts =
    if primary_kept > 0 then
      (primary_kept, primary_aborted, primary_heap, primary_fed, false, 0)
    else
      (* Relaxation ladder ({!Prune.relax_attempts_classes}): re-stream the
         candidates per attempt (hardware rules always stay), stop at the
         first rule set with survivors; reject tallies cover only the
         primary pass. *)
      let rec try_relax n = function
        | [] -> (0, 0, primary_heap, [], true, n)
        | classes :: rest -> (
            match
              pass (Prune.checker_of_classes classes arch prec problem)
                ~tallying:false
            with
            | _, 0, _, _, _ -> try_relax (n + 1) rest
            | _, kept, aborted, heap, fed ->
                (kept, aborted, heap, fed, true, n + 1))
      in
      try_relax 0 Prune.relax_attempts_classes
  in
  (* Only the final top-K (or the fed survivors) become mappings. *)
  let ny = Candidates.num_y cands and nk = Candidates.num_tbk cands in
  let mapping_of (key, cost) =
    let k = key mod nk and xy = key / nk in
    let x = xy / ny and y = xy mod ny in
    (Candidates.mapping cands x y k, cost)
  in
  let ranked =
    List.map mapping_of
      (match mode with
      | Heap _ -> Topk.to_sorted heap
      | Feed _ -> List.sort Topk.compare_ranked fed)
  in
  let degraded =
    match maxfeed with Some f -> kept > f | None -> false
  in
  {
    ranked;
    stats =
      Prune.stats_of_tally ~enumerated ~kept ~relaxed ~relax_attempts
        primary_tally;
    bound_aborted = aborted;
    degraded;
  }
