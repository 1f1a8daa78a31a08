type t = {
  shape : Shape.t;
  dims : int array; (* extents, FVI first *)
  strides : int array; (* strides.(0) = 1 *)
  data : float array;
}

let create shape =
  let dims = Array.of_list (Shape.extents shape) in
  let rank = Array.length dims in
  let strides = Array.make rank 1 in
  for i = 1 to rank - 1 do
    strides.(i) <- strides.(i - 1) * dims.(i - 1)
  done;
  { shape; dims; strides; data = Array.make (Shape.numel shape) 0.0 }

let shape t = t.shape
let numel t = Array.length t.data

let linear_offset t pos =
  if Array.length pos <> Array.length t.dims then
    invalid_arg "Dense: multi-index has wrong rank";
  let off = ref 0 in
  Array.iteri
    (fun k p ->
      if p < 0 || p >= t.dims.(k) then
        invalid_arg
          (Printf.sprintf "Dense: coordinate %d out of range [0,%d) at axis %d"
             p t.dims.(k) k);
      off := !off + (p * t.strides.(k)))
    pos;
  !off

let get t pos = t.data.(linear_offset t pos)
let set t pos v = t.data.(linear_offset t pos) <- v

let unsafe_data t = t.data
let strides t = Array.copy t.strides
let unsafe_get t off = Array.unsafe_get t.data off
let unsafe_set t off v = Array.unsafe_set t.data off v

let iteri t f =
  let rank = Array.length t.dims in
  let pos = Array.make rank 0 in
  Array.iteri
    (fun off v ->
      f pos v;
      (* advance the odometer: axis 0 is fastest *)
      let rec bump k =
        if k < rank then begin
          pos.(k) <- pos.(k) + 1;
          if pos.(k) = t.dims.(k) then begin
            pos.(k) <- 0;
            bump (k + 1)
          end
        end
      in
      ignore off;
      bump 0)
    t.data

let init shape f =
  let t = create shape in
  iteri t (fun pos _ -> t.data.(linear_offset t pos) <- f pos);
  t

let random ?(seed = 42) shape =
  let st = Random.State.make [| seed; Shape.numel shape |] in
  let t = create shape in
  for i = 0 to Array.length t.data - 1 do
    t.data.(i) <- Random.State.float st 2.0 -. 1.0
  done;
  t

let fill t v = Array.fill t.data 0 (Array.length t.data) v

let copy t = { t with data = Array.copy t.data }

let check_same_shape a b =
  if not (Shape.equal a.shape b.shape) then
    invalid_arg "Dense: shape mismatch"

let map2 f a b =
  check_same_shape a b;
  let c = create a.shape in
  for i = 0 to Array.length a.data - 1 do
    c.data.(i) <- f a.data.(i) b.data.(i)
  done;
  c

let max_abs_diff a b =
  check_same_shape a b;
  let m = ref 0.0 in
  for i = 0 to Array.length a.data - 1 do
    let d = Float.abs (a.data.(i) -. b.data.(i)) in
    if d > !m then m := d
  done;
  !m

let equal_approx ?(tol = 1e-9) a b =
  Shape.equal a.shape b.shape && max_abs_diff a b <= tol

let pp fmt t =
  let n = numel t in
  let preview = min n 8 in
  Format.fprintf fmt "@[<h>tensor %a {" Shape.pp t.shape;
  for i = 0 to preview - 1 do
    if i > 0 then Format.fprintf fmt ", ";
    Format.fprintf fmt "%g" t.data.(i)
  done;
  if n > preview then Format.fprintf fmt ", ...";
  Format.fprintf fmt "}@]"
