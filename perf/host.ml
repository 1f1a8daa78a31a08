(* Host-speed reference.

   The benchmark's machine shares its host with other tenants, and the
   system's allocation-heavy OCaml code runs up to 1.6x slower while they
   contend for cache, in phases of seconds to minutes.  A round therefore
   runs one reference slice -- a fixed piece of allocation-heavy OCaml
   work of the same kind, building small persistent maps -- after every
   timed call, and the parent scales the round's timings by how fast those
   slices ran ([factor]).  Timings are then reported at the host's nominal
   (uncontended) speed, so runs taken minutes apart agree. *)

module M = Map.Make (Int)

let work () =
  let s = ref 0 in
  for k = 1 to 20 do
    let m =
      List.fold_left
        (fun m i -> M.add (((i * 31) + k) land 1023) i m)
        M.empty (List.init 50 Fun.id)
    in
    s := !s + M.cardinal m
  done;
  !s

(* One slice in the host's uncontended phase, measured on the machine the
   baseline in README.md comes from (2-vCPU Xeon guest). *)
let nominal_s = 72e-6

(* Duration of one reference slice. *)
let slice () =
  let t0 = Stats.now () in
  ignore (Sys.opaque_identity (work ()));
  Stats.now () -. t0

(* The scale that brings a round's timings to nominal speed: [slices]
   reference slices took [total] seconds. *)
let factor ~slices ~total = float_of_int slices *. nominal_s /. total
