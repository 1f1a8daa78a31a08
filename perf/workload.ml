(* The four workloads as seeded request lists.

   The multiset of requests a round sends -- which TCCG contraction,
   device/precision pair and size class -- is fixed by the workload
   definition, so every seed and every round does the same work; the
   seed and the round index pick only the order, the extent jitter inside
   a size class and the operand values.  Deterministic outputs (chosen
   kernels, dispatch mix, pipeline counts) are then equal for every round
   and seed, and the timing spread between runs is machine noise rather
   than a different mix (stratified sampling).  A fresh order per round
   also keeps the tail latency from depending on which requests one
   order happens to give the garbage collector's slices. *)

open Tc_tccg

type t = Plan_cold | Serve_warm | Serve_mixed | Verify

let all = [ Plan_cold; Serve_warm; Serve_mixed; Verify ]

let name = function
  | Plan_cold -> "plan-cold"
  | Serve_warm -> "serve-warm"
  | Serve_mixed -> "serve-mixed"
  | Verify -> "verify"

let of_name s = List.find_opt (fun w -> name w = s) all

(* [Smoke] shrinks every list and the store to a few requests, for the
   test under [dune runtest]. *)
type size = Full | Smoke

(* The device/precision pairs every workload spreads its requests over:
   the paper's two devices at their native precisions plus the
   tensor-core path the pipelined schemas target. *)
let targets =
  [ ("p100", "fp64"); ("v100", "fp64"); ("v100", "fp32"); ("a100", "fp16") ]

type req = {
  entry : Suite.entry;
  target : string * string;
  sizes : (char * int) list;
}

let sizes_string sizes =
  String.concat "," (List.map (fun (i, n) -> Printf.sprintf "%c=%d" i n) sizes)

(* One JSONL request line, the exact input [cogent serve --requests] and
   [Tc_serve.Request.of_line] read. *)
let line r =
  Printf.sprintf {|{"expr":"%s","sizes":"%s","arch":"%s","precision":"%s"}|}
    r.entry.Suite.expr (sizes_string r.sizes) (fst r.target) (snd r.target)

let shuffled rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let rng seed salt = Random.State.make (Array.of_list (seed :: salt))

(* A fixed order, independent of the run seed. *)
let fixed_order salt l = shuffled (rng 0 salt) l

let rec take n = function
  | x :: tl when n > 0 -> x :: take (n - 1) tl
  | _ -> []

let chunks n l =
  let a = Array.of_list l in
  List.init
    ((Array.length a + n - 1) / n)
    (fun c -> Array.to_list (Array.sub a (c * n) (min n (Array.length a - (c * n)))))

(* Scale every output (external) index by 2^k_ext and every contracted
   index by 2^k_int: each (k_ext, k_int) pair is a distinct size class of
   the plan cache, which rounds extents to the nearest power of two. *)
let scaled e ~k_ext ~k_int =
  let expr = e.Suite.expr in
  let externals = String.sub expr 0 (String.index expr '-') in
  List.map
    (fun (i, n) ->
      let k = if String.contains externals i then k_ext else k_int in
      (i, max 1 (int_of_float (Float.round (Float.ldexp (float_of_int n) k)))))
    e.Suite.sizes

(* Every TCCG entry on every target at every (k_ext, k_int). *)
let universe ks_ext ks_int =
  List.concat_map
    (fun entry ->
      List.concat_map
        (fun target ->
          List.concat_map
            (fun k_ext ->
              List.map
                (fun k_int -> { entry; target; sizes = scaled entry ~k_ext ~k_int })
                ks_int)
            ks_ext)
        targets)
    Suite.all

(* -- plan-cold: every request a miss on a fresh plan cache ------------- *)

(* 48 entries x 4 targets x 4 uniform scales = 768 distinct keys. *)
let plan_cold ~size ~seed ~round =
  let all =
    List.concat_map (fun k -> universe [ k ] [ k ]) [ -2; -1; 0; 1 ]
  in
  let all = match size with Full -> all | Smoke -> take 20 (fixed_order [ 1 ] all) in
  shuffled (rng seed [ 1; round ]) all

(* -- the plan store shared by serve-warm and serve-mixed --------------- *)

(* 2048 keys of the 48 x 4 x 4 x 3 (k_ext, k_int) grid, in Zipf rank
   order. *)
let store_keys size =
  take
    (match size with Full -> 2048 | Smoke -> 32)
    (fixed_order [ 2 ] (universe [ -2; -1; 0; 1 ] [ -1; 0; 1 ]))

(* Jitter every extent inside its plan-cache size class (3P/4, 3P/2],
   where P is the extent rounded to the nearest power of two, so a
   jittered request still hits the stored plan. *)
let round_pow2 n =
  let rec go p = if p >= n then p else go (2 * p) in
  let hi = go 1 in
  let lo = max 1 (hi / 2) in
  if n - lo <= hi - n then lo else hi

let jitter rng r =
  let sizes =
    List.map
      (fun (i, n) ->
        let p = round_pow2 n in
        let lo = (3 * p / 4) + 1 and hi = 3 * p / 2 in
        (i, lo + Random.State.int rng (hi - lo + 1)))
      r.sizes
  in
  { r with sizes }

(* Zipf-like multiset over the store in rank order: rank r appears
   1 + a/r times, so every key is read and the head is hot. *)
let zipf ~a keys =
  List.concat (List.mapi (fun i k -> List.init (1 + (a / (i + 1))) (fun _ -> k)) keys)

(* -- serve-warm: batches of 16 hits ------------------------------------ *)

let warm_batch = 16

(* The mix is served twice per round, each time in a fresh order, so a
   round holds enough distinct batches for a stable latency tail. *)
let serve_warm ~size ~seed ~round =
  let keys = store_keys size in
  let m = match size with Full -> zipf ~a:128 keys | Smoke -> take 16 keys in
  (* pad with the hottest key to whole batches *)
  let pad = (warm_batch - (List.length m mod warm_batch)) mod warm_batch in
  let m = m @ List.init pad (fun _ -> List.hd keys) in
  let rng = rng seed [ 3; round ] in
  let pass () = chunks warm_batch (List.map (jitter rng) (shuffled rng m)) in
  match size with Full -> pass () @ pass () | Smoke -> pass ()

(* -- serve-mixed: batches of 8, a quarter of them new keys ------------- *)

let mixed_batch = 8
let mixed_new = 2

(* A round is [lifetimes] session lifetimes of [nb] batches each: the
   session restarts (save, then load of the grown store) between them.
   Hits follow the Zipf mix over the store; the new keys are keys no
   store row covers (contracted extents scaled by 1/4 or 4), each used
   once per round. *)
let serve_mixed ~size ~seed ~round =
  let lifetimes, nb = match size with Full -> (3, 100) | Smoke -> (1, 3) in
  let hits_per = mixed_batch - mixed_new in
  let n = lifetimes * nb in
  let hits = take (n * hits_per) (fixed_order [ 5 ] (zipf ~a:128 (store_keys size))) in
  let fresh = take (n * mixed_new) (fixed_order [ 4 ] (universe [ -2; -1; 0; 1 ] [ -2; 2 ])) in
  let rng = rng seed [ 6; round ] in
  let hits = Array.of_list (List.map (jitter rng) (shuffled rng hits)) in
  let fresh = Array.of_list (shuffled rng fresh) in
  let batch b =
    shuffled rng
      (Array.to_list (Array.sub hits (b * hits_per) hits_per)
      @ Array.to_list (Array.sub fresh (b * mixed_new) mixed_new))
  in
  List.init lifetimes (fun l -> List.init nb (fun b -> batch ((l * nb) + b)))

(* -- verify: odd, tile-misaligned extents, checked against the oracle -- *)

let verify_cap = 20_000

(* Odd extents from {3..23}, then the largest is shrunk by 2 until the
   problem has at most [verify_cap] points.  Drawn per request, not from
   the seed (see the header). *)
let verify_sizes entry ti =
  let rng = rng 0 [ 7; entry.Suite.id; ti ] in
  let sizes =
    Array.of_list
      (List.map (fun (i, _) -> (i, 3 + (2 * Random.State.int rng 11))) entry.Suite.sizes)
  in
  let product () = Array.fold_left (fun acc (_, n) -> acc * n) 1 sizes in
  while product () > verify_cap do
    let big = ref 0 in
    Array.iteri (fun k (_, n) -> if n > snd sizes.(!big) then big := k) sizes;
    let i, n = sizes.(!big) in
    sizes.(!big) <- (i, n - 2)
  done;
  Array.to_list sizes

(* 48 entries x 4 targets = 192 requests. *)
let verify ~size ~seed ~round =
  let all =
    List.concat_map
      (fun entry ->
        List.mapi (fun ti target -> { entry; target; sizes = verify_sizes entry ti }) targets)
      Suite.all
  in
  let all = match size with Full -> all | Smoke -> take 20 (fixed_order [ 8 ] all) in
  shuffled (rng seed [ 9; round ]) all

(* Every request line of a round, in order: the [--dump-workload] view. *)
let lines w ~size ~seed ~round =
  List.map line
    (match w with
    | Plan_cold -> plan_cold ~size ~seed ~round
    | Serve_warm -> List.concat (serve_warm ~size ~seed ~round)
    | Serve_mixed -> List.concat (List.concat (serve_mixed ~size ~seed ~round))
    | Verify -> verify ~size ~seed ~round)
