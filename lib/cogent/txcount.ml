type axis = { tile : int; cut : int; stride : int }

(* State of one sweep walk: transactions so far, the open coalescing
   segment (length and last address touched), and the next position's
   offset within its wave, kept without divisions so that short rows stay
   cheap. *)
type walk = {
  width : int;
  ept : int;
  mutable tx : int;
  mutable seg_len : int;
  mutable seg_prev : int;
  mutable wave : int;
}

let close_segment w =
  if w.seg_len > 0 then begin
    w.tx <- w.tx + ((w.seg_len + w.ept - 1) / w.ept);
    w.seg_len <- 0
  end

(* [k] in-range positions with consecutive addresses from [addr], all
   inside the current wave. *)
let run w addr k =
  if w.wave = 0 then close_segment w;
  if w.seg_len > 0 && addr = w.seg_prev + 1 then w.seg_len <- w.seg_len + k
  else begin
    close_segment w;
    w.seg_len <- k
  end;
  w.seg_prev <- addr + k - 1;
  let next = w.wave + k in
  w.wave <- (if next = w.width then 0 else next)

(* [k] masked positions: they issue nothing, so only a wave boundary
   among them closes the segment. *)
let masked w k =
  if k > 0 then begin
    let next = w.wave + k in
    if w.wave = 0 || next > w.width then close_segment w;
    w.wave <- (if next < w.width then next else next mod w.width)
  end

(* A tile-1 axis in range changes neither the order nor the address of
   any position. *)
let drop_unit_tiles axes =
  let m = Array.fold_left (fun c ax -> if ax.tile = 1 then c else c + 1) 0 axes in
  if m = Array.length axes then axes
  else begin
    let out = Array.make m { tile = 1; cut = 1; stride = 1 } in
    let j = ref 0 in
    Array.iter
      (fun ax ->
        if ax.tile <> 1 then begin
          out.(!j) <- ax;
          incr j
        end)
      axes;
    out
  end

(* The count without a walk, or -1 when the sweep is not of this shape.
   The leading axes that are dense in address (each stride equals the row
   length so far, every cut before it full; none when the first stride is
   not 1) merge into rows of [len] positions whose in-range part is a
   contiguous prefix of [c].  When the first remaining stride exceeds [c]
   and each stride is at least the previous stride times its cut, each
   in-range row's base exceeds the previous in-range row's by more than
   [c], so no row continues another's segment: every in-range row costs
   the same, and there are [prod cut] of them over the remaining axes.
   That cost is one segment when rows pack whole into waves ([len]
   divides [width]), or the prefix split at wave boundaries when every row
   starts a wave ([width] divides [len]). *)
let closed_form ~width ~ept axes =
  let n = Array.length axes in
  let len = ref 1 and c = ref 1 and m = ref 0 in
  while !m < n && !c = !len && axes.(!m).stride = !len do
    let ax = axes.(!m) in
    c := !len * min ax.cut ax.tile;
    len := !len * ax.tile;
    incr m
  done;
  let len = !len and c = !c in
  let rows = ref 1 and need = ref (c + 1) and ok = ref true in
  for i = !m to n - 1 do
    let ax = axes.(i) in
    let cut = min ax.cut ax.tile in
    if ax.stride < !need || ax.stride > max_int / cut then ok := false
    else begin
      need := ax.stride * cut;
      rows := !rows * cut
    end
  done;
  let lines k = (k + ept - 1) / ept in
  if not !ok then -1
  else if width mod len = 0 then !rows * lines c
  else if len mod width = 0 then
    !rows * ((c / width * lines width) + lines (c mod width))
  else -1

(* Otherwise the sweep is walked one row of the first (fastest) axis at a
   time: an odometer over the outer axes carries the row's base address
   and the number of out-of-range outer coordinates, and each row is
   consumed in pieces rather than positions — its in-range prefix ([cut]
   positions, or none when an outer coordinate is out of range), then its
   masked tail. *)
let walk ~width ~ept ~elems axes =
  let n = Array.length axes in
  let first = if n = 0 then { tile = 1; cut = 1; stride = 1 } else axes.(0) in
  let len = first.tile and stride = first.stride in
  let cut = min first.cut len in
  let w = { width; ept; tx = 0; seg_len = 0; seg_prev = 0; wave = 0 } in
  let locals = Array.make n 0 in
  let bad = ref 0 in
  let base = ref 0 in
  let rows = elems / len in
  for r = 0 to rows - 1 do
    if !bad > 0 then masked w len
    else begin
      if stride = 1 then begin
        (* A contiguous run, split only at wave boundaries. *)
        let addr = ref !base and left = ref cut in
        while !left > 0 do
          let k = min !left (w.width - w.wave) in
          run w !addr k;
          addr := !addr + k;
          left := !left - k
        done
      end
      else
        for j = 0 to cut - 1 do
          run w (!base + (j * stride)) 1
        done;
      masked w (len - cut)
    end;
    if r < rows - 1 then begin
      let k = ref 1 in
      while locals.(!k) = axes.(!k).tile - 1 do
        let ax = axes.(!k) in
        if ax.cut < ax.tile then decr bad;
        base := !base - ((ax.tile - 1) * ax.stride);
        locals.(!k) <- 0;
        incr k
      done;
      let ax = axes.(!k) in
      locals.(!k) <- locals.(!k) + 1;
      base := !base + ax.stride;
      if locals.(!k) = ax.cut then incr bad
    end
  done;
  close_segment w;
  w.tx

(* An axis with [cut <= 0] masks every position. *)
let staged_sweep ~width ~ept axes =
  let elems = Array.fold_left (fun a ax -> a * ax.tile) 1 axes in
  if elems <= 0 || Array.exists (fun ax -> ax.cut <= 0) axes then 0
  else begin
    let axes = drop_unit_tiles axes in
    let width = max 1 width and ept = max 1 ept in
    let tx = closed_form ~width ~ept axes in
    if tx >= 0 then tx else walk ~width ~ept ~elems axes
  end
