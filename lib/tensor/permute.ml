let check_permutation src dst =
  if
    not
      (List.length src = List.length dst
      && Index.Set.equal (Index.Set.of_list src) (Index.Set.of_list dst))
  then
    invalid_arg
      (Printf.sprintf "Permute: %s is not a permutation of %s"
         (Index.list_to_string dst)
         (Index.list_to_string src))

let is_identity ~src ~dst =
  check_permutation src dst;
  List.for_all2 Index.equal src dst

(* For each destination axis k, [src_axis.(k)] is the source axis holding the
   same index, so a destination multi-index maps onto a source offset via the
   source strides gathered in destination order. *)
let gathered_strides src_shape dst_indices =
  Array.of_list (List.map (Shape.stride src_shape) dst_indices)

let permute ~dst_indices t =
  let src_shape = Dense.shape t in
  check_permutation (Shape.indices src_shape) dst_indices;
  let dst_shape =
    Shape.make
      (List.map (fun i -> (i, Shape.extent src_shape i)) dst_indices)
  in
  let out = Dense.create dst_shape in
  let src_strides = gathered_strides src_shape dst_indices in
  let src = Dense.unsafe_data t and dst = Dense.unsafe_data out in
  let dims = Array.of_list (Shape.extents dst_shape) in
  let rank = Array.length dims in
  let pos = Array.make rank 0 in
  let src_off = ref 0 in
  for dst_off = 0 to Array.length dst - 1 do
    dst.(dst_off) <- src.(!src_off);
    let rec bump k =
      if k < rank then begin
        pos.(k) <- pos.(k) + 1;
        src_off := !src_off + src_strides.(k);
        if pos.(k) = dims.(k) then begin
          pos.(k) <- 0;
          src_off := !src_off - (dims.(k) * src_strides.(k));
          bump (k + 1)
        end
      end
    in
    bump 0
  done;
  out
