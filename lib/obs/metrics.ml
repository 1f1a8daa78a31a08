type hist = {
  bounds : float array;  (* strictly increasing, last is infinity *)
  counts : int array;  (* per-bucket (non-cumulative) *)
  mutable sum : float;
  mutable n : int;
}

type instrument =
  | Icounter of float ref
  | Igauge of float ref
  | Ihist of hist

type t = { lock : Mutex.t; table : (string, instrument) Hashtbl.t }

type counter = { c_lock : Mutex.t; c_cell : float ref }
type gauge = { g_lock : Mutex.t; g_cell : float ref }
type histogram = { h_lock : Mutex.t; h : hist }

let create () = { lock = Mutex.create (); table = Hashtbl.create 32 }
let global = create ()

let locked lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let kind_name = function
  | Icounter _ -> "counter"
  | Igauge _ -> "gauge"
  | Ihist _ -> "histogram"

let register registry name make match_ =
  locked registry.lock (fun () ->
      match Hashtbl.find_opt registry.table name with
      | Some existing -> (
          match match_ existing with
          | Some v -> v
          | None ->
              invalid_arg
                (Printf.sprintf "Metrics: %S already registered as a %s" name
                   (kind_name existing)))
      | None ->
          let instrument, v = make () in
          Hashtbl.add registry.table name instrument;
          v)

let counter ?(registry = global) name =
  register registry name
    (fun () ->
      let cell = ref 0.0 in
      (Icounter cell, { c_lock = registry.lock; c_cell = cell }))
    (function
      | Icounter cell -> Some { c_lock = registry.lock; c_cell = cell }
      | _ -> None)

let add c by = locked c.c_lock (fun () -> c.c_cell := !(c.c_cell) +. by)
let incr ?(by = 1) c = add c (float_of_int by)

let gauge ?(registry = global) name =
  register registry name
    (fun () ->
      let cell = ref 0.0 in
      (Igauge cell, { g_lock = registry.lock; g_cell = cell }))
    (function
      | Igauge cell -> Some { g_lock = registry.lock; g_cell = cell }
      | _ -> None)

let set g v = locked g.g_lock (fun () -> g.g_cell := v)

let default_buckets =
  [ 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6 ]

let histogram ?(registry = global) ?(buckets = default_buckets) name =
  let bounds =
    let sorted = List.sort_uniq Float.compare buckets in
    Array.of_list (sorted @ [ Float.infinity ])
  in
  register registry name
    (fun () ->
      let h =
        { bounds; counts = Array.make (Array.length bounds) 0; sum = 0.0; n = 0 }
      in
      (Ihist h, { h_lock = registry.lock; h }))
    (function
      | Ihist h -> Some { h_lock = registry.lock; h }
      | _ -> None)

let observe hg v =
  locked hg.h_lock (fun () ->
      let h = hg.h in
      let rec slot k =
        if v <= h.bounds.(k) || k = Array.length h.bounds - 1 then k
        else slot (k + 1)
      in
      let k = slot 0 in
      h.counts.(k) <- h.counts.(k) + 1;
      h.sum <- h.sum +. v;
      h.n <- h.n + 1)

type item =
  | Counter_v of { name : string; value : float }
  | Gauge_v of { name : string; value : float }
  | Histogram_v of {
      name : string;
      count : int;
      sum : float;
      buckets : (float * int) list;
    }

let snapshot registry =
  locked registry.lock (fun () ->
      Hashtbl.fold
        (fun name instrument acc ->
          let item =
            match instrument with
            | Icounter cell -> Counter_v { name; value = !cell }
            | Igauge cell -> Gauge_v { name; value = !cell }
            | Ihist h ->
                (* Cumulative counts per bound, Prometheus-style. *)
                let acc_count = ref 0 in
                let buckets =
                  Array.to_list
                    (Array.mapi
                       (fun k bound ->
                         acc_count := !acc_count + h.counts.(k);
                         (bound, !acc_count))
                       h.bounds)
                in
                Histogram_v { name; count = h.n; sum = h.sum; buckets }
          in
          item :: acc)
        registry.table []
      |> List.sort (fun a b ->
             let name = function
               | Counter_v { name; _ } | Gauge_v { name; _ }
               | Histogram_v { name; _ } ->
                   name
             in
             String.compare (name a) (name b)))

let value registry name =
  locked registry.lock (fun () ->
      match Hashtbl.find_opt registry.table name with
      | Some (Icounter cell) | Some (Igauge cell) -> Some !cell
      | Some (Ihist h) -> Some h.sum
      | None -> None)

let reset registry =
  locked registry.lock (fun () ->
      Hashtbl.iter
        (fun _ instrument ->
          match instrument with
          | Icounter cell | Igauge cell -> cell := 0.0
          | Ihist h ->
              Array.fill h.counts 0 (Array.length h.counts) 0;
              h.sum <- 0.0;
              h.n <- 0)
        registry.table)

(* ---- quantiles: a pure function of the snapshot ---- *)

let quantile item q =
  match item with
  | Histogram_v { count; buckets; _ } when count > 0 ->
      let q = Float.max 0.0 (Float.min 1.0 q) in
      let rank = q *. float_of_int count in
      let lower0 =
        match buckets with
        | (b, _) :: _ when Float.is_finite b -> Float.min 0.0 b
        | _ -> 0.0
      in
      (* First bucket whose cumulative count reaches the target rank;
         linear interpolation inside it (Prometheus histogram_quantile
         semantics).  The overflow bucket has no upper bound, so it
         reports the highest finite bound instead. *)
      let rec go lower prev = function
        | [] -> None
        | (bound, cum) :: rest ->
            if float_of_int cum >= rank then
              if Float.is_finite bound then
                Some
                  (lower
                  +. (bound -. lower)
                     *. ((rank -. float_of_int prev)
                        /. float_of_int (cum - prev)))
              else Some lower
            else go (if Float.is_finite bound then bound else lower) cum rest
      in
      if rank <= 0.0 then Some lower0 else go lower0 0 buckets
  | _ -> None

let summary_points = [ 0.5; 0.9; 0.99 ]

let quantile_summary item =
  List.filter_map
    (fun q -> Option.map (fun v -> (q, v)) (quantile item q))
    summary_points

(* ---- Prometheus text exposition ---- *)

let prometheus_name name =
  let s =
    String.map
      (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':') as c -> c | _ -> '_')
      name
  in
  if s = "" then "_"
  else match s.[0] with '0' .. '9' -> "_" ^ s | _ -> s

(* Shortest decimal form that parses back to exactly [f] — the same
   convention as {!Json}, so deterministic values expose to deterministic
   bytes. *)
let prometheus_float f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "+Inf"
  else if f = Float.neg_infinity then "-Inf"
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let to_prometheus items =
  let buf = Buffer.create 1024 in
  List.iter
    (function
      | Counter_v { name; value } ->
          let n = prometheus_name name in
          Printf.bprintf buf "# TYPE %s counter\n%s %s\n" n n
            (prometheus_float value)
      | Gauge_v { name; value } ->
          let n = prometheus_name name in
          Printf.bprintf buf "# TYPE %s gauge\n%s %s\n" n n
            (prometheus_float value)
      | Histogram_v { name; count; sum; buckets } ->
          let n = prometheus_name name in
          Printf.bprintf buf "# TYPE %s histogram\n" n;
          List.iter
            (fun (bound, cum) ->
              Printf.bprintf buf "%s_bucket{le=\"%s\"} %d\n" n
                (prometheus_float bound) cum)
            buckets;
          Printf.bprintf buf "%s_sum %s\n" n (prometheus_float sum);
          Printf.bprintf buf "%s_count %d\n" n count)
    items;
  Buffer.contents buf

let pp fmt items =
  Format.fprintf fmt "@[<v>";
  List.iteri
    (fun k item ->
      if k > 0 then Format.fprintf fmt "@,";
      match item with
      | Counter_v { name; value } ->
          Format.fprintf fmt "%-40s %12.0f" name value
      | Gauge_v { name; value } -> Format.fprintf fmt "%-40s %12.3f" name value
      | Histogram_v { name; count; sum; _ } as h ->
          Format.fprintf fmt "%-40s n=%d sum=%.6g" name count sum;
          List.iter
            (fun (q, v) -> Format.fprintf fmt " p%g=%.4g" (q *. 100.0) v)
            (quantile_summary h))
    items;
  Format.fprintf fmt "@]"
