(* The repository benchmark (see README.md).

     main.exe --workload W --seed N --seconds S --trace 0|1
     main.exe run   [--seed N] [--seconds S] [--out FILE] [--smoke]
     main.exe trace [--seed N] [--seconds S] [--out FILE] [--smoke]
     main.exe compare A.json B.json [--bounds BENCHMARK.json]
     main.exe --dump-workload W [--seed N]

   Every round runs in a fresh child process ([round], internal), one
   child at a time, and serves its workload's request list once; a run
   holds as many rounds as fit its time.  [run] and [trace] interleave
   the workloads round by round, so a slow phase of a shared machine hits
   every workload a little instead of one workload entirely.  See
   [summarize] for how rounds become metrics. *)

module Json = Tc_obs.Json

(* Taken before anything else runs: the end of process start-up. *)
let entry_ns = Stats.now_ns ()

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("perf: " ^ m);
      exit 2)
    fmt

let args = List.tl (Array.to_list Sys.argv)

let opt name =
  let rec go = function
    | k :: v :: _ when k = name -> Some v
    | _ :: tl -> go tl
    | [] -> None
  in
  go args

let flag name = List.mem name args

let int_opt name ~default =
  match opt name with
  | None -> default
  | Some v -> (
      match int_of_string_opt v with
      | Some n -> n
      | None -> die "%s expects an integer, got %S" name v)

let workload_arg s =
  match Workload.of_name s with
  | Some w -> w
  | None ->
      die "unknown workload %S (%s)" s
        (String.concat "|" (List.map Workload.name Workload.all))

let size () = if flag "--smoke" then Workload.Smoke else Workload.Full
let min_rounds = function Workload.Full -> 4 | Smoke -> 1

(* -- JSON access -------------------------------------------------------- *)

let member j k =
  match Json.member k j with Some v -> v | None -> die "report lacks %S" k

let num j k =
  match Json.to_float (member j k) with Some x -> x | None -> die "%S is not a number" k

let str j k = match member j k with Json.String s -> s | _ -> die "%S is not a string" k
let items j k = match member j k with Json.List l -> l | _ -> die "%S is not a list" k

let read_json file =
  match Json.parse (In_channel.with_open_text file In_channel.input_all) with
  | Ok j -> j
  | Error m -> die "%s: %s" file m
  | exception Sys_error m -> die "%s" m

(* -- child processes ---------------------------------------------------- *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

(* Run this executable with [args]; its last stdout line is a JSON
   object.  [--spawned] carries the clock reading taken just before the
   process starts. *)
let spawn args =
  let exe = Sys.executable_name in
  let spawned = Stats.now_ns () in
  let argv = Array.of_list ((exe :: args) @ [ "--spawned"; Int64.to_string spawned ]) in
  let ic = Unix.open_process_args_in exe argv in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> (
      let lines = List.filter (( <> ) "") (String.split_on_char '\n' out) in
      match Json.parse (List.nth lines (List.length lines - 1)) with
      | Ok j -> j
      | Error m -> die "child %s: %s" (String.concat " " args) m
      | exception _ -> die "child %s printed nothing" (String.concat " " args))
  | _ -> die "child %s failed" (String.concat " " args)

let out_dir = "_perf"

let trace_file w ~seed =
  Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.json" (Workload.name w) seed)

type wreport = { w : Workload.t; rounds : Json.t list; traced : Json.t option }

(* One invocation: the store (when a serve workload needs it) is built in
   an untimed child; then rounds of every workload run round-robin until
   each workload has had [seconds] (and at least [min_rounds] rounds);
   then one traced round each when [traced]. *)
let invoke ~workloads ~seed ~seconds ~size ~traced =
  let dir = Filename.concat out_dir (string_of_int (Unix.getpid ())) in
  mkdir_p dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let store = Filename.concat dir "store" in
  let smoke = if size = Workload.Smoke then [ "--smoke" ] else [] in
  if List.exists (fun w -> w = Workload.Serve_warm || w = Serve_mixed) workloads then
    ignore (spawn ([ "prep"; store ] @ smoke));
  let round w k extra =
    let rdir = Filename.concat dir (Printf.sprintf "%s-%d" (Workload.name w) k) in
    mkdir_p rdir;
    spawn
      ([ "round"; Workload.name w; string_of_int k; "--seed"; string_of_int seed; "--dir";
         rdir; "--store"; store ]
      @ smoke @ extra)
  in
  let t0 = Stats.now () in
  let budget = seconds *. float_of_int (List.length workloads) in
  let rec go k acc =
    if k > min_rounds size && (size = Workload.Smoke || Stats.now () -. t0 >= budget)
    then acc
    else go (k + 1) (List.map2 (fun w rs -> round w k [] :: rs) workloads acc)
  in
  let rounds = go 1 (List.map (fun _ -> []) workloads) in
  List.map2
    (fun w rs ->
      let traced =
        if traced then Some (round w 0 [ "--trace-file"; trace_file w ~seed ]) else None
      in
      { w; rounds = List.rev rs; traced })
    workloads rounds

(* -- metrics ------------------------------------------------------------- *)

(* The end-to-end metrics, as BENCHMARK.json lists them. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("req_per_s", "req/s");
    ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms");
    ("kernel_gflops_geomean", "GFLOPS");
    ("peak_rss_mb", "MB");
  ]

type metric = {
  name : string;
  unit : string;
  value : float;
  raw : float;  (** the value before host-speed scaling *)
  per_round : float list;
}

type summary = {
  metrics : metric list;  (** [end_to_end] then [failed_ratio] *)
  nrounds : int;
  samples : int;  (** latency samples, all rounds *)
  attempted : int;
  failed : int;
  generations : int;  (** plan searches inside [Serve.run] *)
  notes : string list;  (** why the run is not correct; empty when it is *)
  layers : (string * float) list;  (** traced round only *)
  table : Json.t list;
}

(* A round's timings at the host's nominal speed (see [Host]). *)
let scale j = num j "host_factor"
let rps j = num j "ok" /. (num j "busy_s" *. scale j)
let lat ?(scaled = true) j =
  let f = if scaled then scale j else 1.0 in
  List.filter_map (fun x -> Option.map (fun x -> x *. f) (Json.to_float x)) (items j "lat_s")

let list_min = List.fold_left Float.min infinity
let list_max = List.fold_left Float.max neg_infinity

(* Every round's timings are scaled to the host's nominal speed, then all
   rounds pool: throughput is total requests over total scaled busy time,
   and the latency percentiles come from every sample.  Set-up time and
   memory take the median round. *)
let summarize r =
  let all = r.rounds @ Option.to_list r.traced in
  let vals k = List.map (fun j -> num j k) r.rounds in
  let sum k = List.fold_left (fun acc j -> acc + int_of_float (num j k)) 0 all in
  let attempted = sum "attempted" and failed = sum "failed" in
  let total f = List.fold_left (fun acc j -> acc +. f j) 0.0 r.rounds in
  let pct ~scaled q =
    Stats.percentile (Stats.sorted (List.concat_map (lat ~scaled) r.rounds)) q *. 1e3
  in
  let round_pct q = List.map (fun j -> Stats.percentile (Stats.sorted (lat j)) q *. 1e3) r.rounds in
  let gflops = vals "gflops_geomean" in
  let m ?raw name value per_round =
    let unit = Option.value (List.assoc_opt name end_to_end) ~default:"failed/attempted" in
    { name; unit; value; raw = Option.value raw ~default:value; per_round }
  in
  let ok = total (fun j -> num j "ok") in
  let setup = List.map (fun j -> num j "setup_s" *. scale j) r.rounds in
  let metrics =
    [
      m "setup_s" (Stats.median setup) ~raw:(Stats.median (vals "setup_s")) setup;
      m "req_per_s"
        (ok /. total (fun j -> num j "busy_s" *. scale j))
        ~raw:(ok /. total (fun j -> num j "busy_s"))
        (List.map rps r.rounds);
      m "latency_p50_ms" (pct ~scaled:true 0.5) ~raw:(pct ~scaled:false 0.5) (round_pct 0.5);
      m "latency_p99_ms" (pct ~scaled:true 0.99) ~raw:(pct ~scaled:false 0.99) (round_pct 0.99);
      m "kernel_gflops_geomean" (List.hd gflops) gflops;
      m "peak_rss_mb" (Stats.median (vals "rss_mb")) (vals "rss_mb");
      m "failed_ratio"
        (float_of_int failed /. float_of_int (max 1 attempted))
        (List.map (fun j -> num j "failed" /. num j "attempted") r.rounds);
    ]
  in
  let fingerprints = List.map (fun j -> str j "fingerprint") all in
  let layers =
    match r.traced with
    | None -> []
    | Some t ->
        (match member t "layers" with
        | Json.Obj kv ->
            List.map (fun (k, v) -> (k, Option.value ~default:nan (Json.to_float v))) kv
        | _ -> [])
        @ [
            ( "trace.overhead_pct",
              ((Stats.median (List.map rps r.rounds) /. rps t) -. 1.0) *. 100.0 );
          ]
  in
  let residual = List.assoc_opt "trace.layer_residual_pct" layers in
  let notes =
    List.concat
      [
        List.concat_map
          (fun j -> List.map (function Json.String s -> s | _ -> "") (items j "failures"))
          all;
        (if List.for_all (( = ) (List.hd fingerprints)) fingerprints then []
         else
           [ "NONDETERMINISM: outputs (kernels, pipeline counts, dispatch) differ \
              between rounds" ]);
        (match (r.w, residual) with
        | (Workload.Plan_cold | Verify), Some x when not (x <= 5.0) ->
            [ Printf.sprintf "layer spans miss request latency by %.1f%% (limit 5%%)" x ]
        | _ -> []);
        (if failed > 0 then [ Printf.sprintf "%d of %d requests failed" failed attempted ]
         else []);
      ]
  in
  {
    metrics;
    nrounds = List.length r.rounds;
    samples = List.length (List.concat_map lat r.rounds);
    attempted;
    failed;
    generations = sum "generations";
    notes;
    layers;
    table = (match r.traced with Some t -> items t "table" | None -> []);
  }

(* -- output ------------------------------------------------------------- *)

let print_summary ~seed r s =
  Printf.printf "== %s  seed %d  %d rounds  attempted %d  failed %d  generations %d  %s\n"
    (Workload.name r.w) seed s.nrounds s.attempted s.failed s.generations
    (if s.notes = [] then "correct" else "NOT CORRECT");
  List.iter (fun n -> Printf.printf "   ! %s\n" n) s.notes;
  List.iter
    (fun m ->
      Printf.printf "   %-22s %12.6g %-16s raw %-12.6g rounds %.5g..%.5g%s\n" m.name m.value
        m.unit m.raw (list_min m.per_round) (list_max m.per_round)
        (if String.starts_with ~prefix:"latency" m.name then
           Printf.sprintf "  samples %d" s.samples
         else ""))
    s.metrics;
  if s.table <> [] then begin
    Printf.printf "   -- traced round: layer self time (probe.* and check.* are outside requests)\n";
    Printf.printf "   %-24s %8s %11s %11s %11s\n" "layer" "calls" "total ms" "self ms"
      "self us/call";
    List.iter
      (fun row ->
        let calls = num row "calls" and self = num row "self_s" in
        Printf.printf "   %-24s %8.0f %11.2f %11.2f %11.2f\n" (str row "layer") calls
          (num row "total_s" *. 1e3) (self *. 1e3) (self /. calls *. 1e6))
      s.table;
    List.iter
      (fun (k, u) ->
        Printf.printf "   %-28s %12.6g %s\n" k
          (Option.value ~default:nan (List.assoc_opt k s.layers)) u)
      Round.layer_metrics
  end

let report_json ~seed ~seconds reports =
  Json.Obj
    [
      ("schema", Json.String "cogent-perf/1");
      ("seed", Json.Int seed);
      ("seconds", Json.Float seconds);
      ( "workloads",
        Json.List
          (List.map
             (fun (r, s) ->
               Json.Obj
                 [
                   ("name", Json.String (Workload.name r.w));
                   ("correct", Json.Bool (s.notes = []));
                   ("attempted", Json.Int s.attempted);
                   ("failed", Json.Int s.failed);
                   ("rounds", Json.Int s.nrounds);
                   ("samples", Json.Int s.samples);
                   ( "metrics",
                     Json.List
                       (List.map
                          (fun m ->
                            Json.Obj
                              [
                                ("name", Json.String m.name);
                                ("unit", Json.String m.unit);
                                ("value", Json.Float m.value);
                                ("raw", Json.Float m.raw);
                                ( "rounds",
                                  Json.List (List.map (fun x -> Json.Float x) m.per_round) );
                              ])
                          s.metrics) );
                   ("layers", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) s.layers));
                 ])
             reports) );
    ]

let write_out ~seed ~seconds reports =
  Option.iter
    (fun file ->
      Out_channel.with_open_text file (fun oc ->
          Out_channel.output_string oc
            (Json.to_string_pretty (report_json ~seed ~seconds reports) ^ "\n")))
    (opt "--out")

(* -- compare ------------------------------------------------------------- *)

(* The uncertainty of a headline value that pools, or takes the median
   of, these rounds: their interquartile range over the median, divided by
   the square root of their number. *)
let uncertainty rounds =
  Stats.spread rounds /. sqrt (float_of_int (max 1 (List.length rounds)))

(* Verdict for one metric: [unresolved] when either side's uncertainty
   exceeds the bound (the difference cannot be told from noise), else
   [worse]/[better] when the headline values differ by more than the
   bound in that direction.  [failed_ratio] has an absolute bound of 0. *)
let verdict ~better ~bound ~a ~b ~ra ~rb =
  if bound = 0.0 then if b > a then "worse" else if b < a then "better" else "within"
  else
    let worse_by = (if better = "lower" then b -. a else a -. b) /. Float.abs a in
    if Float.max (uncertainty ra) (uncertainty rb) > bound then "unresolved"
    else if worse_by > bound then "worse"
    else if worse_by < -.bound then "better"
    else "within"

let compare_cmd a_file b_file =
  let bounds_file = Option.value (opt "--bounds") ~default:"BENCHMARK.json" in
  let bounds =
    List.map
      (fun m -> (str m "name", (str m "better", num m "bound")))
      (items (read_json bounds_file) "end_to_end")
    @ [ ("failed_ratio", ("lower", 0.0)) ]
  in
  let workloads f = List.map (fun w -> (str w "name", w)) (items (read_json f) "workloads") in
  let a = workloads a_file and b = workloads b_file in
  let metric w name = List.find (fun m -> str m "name" = name) (items w "metrics") in
  let rounds m = List.filter_map Json.to_float (items m "rounds") in
  Printf.printf "%-12s %-22s %12s %12s %12s %12s %8s %7s  %s\n" "workload" "metric" "A" "B"
    "A median" "B median" "delta" "bound" "verdict";
  let worse = ref false in
  List.iter
    (fun (wname, wa) ->
      match List.assoc_opt wname b with
      | None -> Printf.printf "%-12s missing from %s\n" wname b_file
      | Some wb ->
          List.iter
            (fun (name, (better, bound)) ->
              let ma = metric wa name and mb = metric wb name in
              let va = num ma "value" and vb = num mb "value" in
              let ra = rounds ma and rb = rounds mb in
              let v = verdict ~better ~bound ~a:va ~b:vb ~ra ~rb in
              if v = "worse" then worse := true;
              Printf.printf "%-12s %-22s %12.6g %12.6g %12.6g %12.6g %+7.2f%% %6.1f%%  %s\n"
                wname name va vb (Stats.median ra) (Stats.median rb)
                (if va = 0.0 then 0.0 else (vb -. va) /. Float.abs va *. 100.0)
                (bound *. 100.0) v)
            bounds)
    a;
  exit (if !worse then 1 else 0)

(* -- child entry points --------------------------------------------------- *)

let spawned_ns () =
  match Option.bind (opt "--spawned") Int64.of_string_opt with
  | Some ns -> ns
  | None -> entry_ns

let round_cmd wname k =
  let w = workload_arg wname in
  let round = match int_of_string_opt k with Some k -> k | None -> die "bad round %S" k in
  let req k = match opt k with Some v -> v | None -> die "round needs %s" k in
  let j =
    Round.run ~entry_ns ~spawned_ns:(spawned_ns ()) w ~size:(size ())
      ~seed:(int_opt "--seed" ~default:1) ~round ~dir:(req "--dir") ~store:(req "--store")
      ~trace_file:(opt "--trace-file")
  in
  print_endline (Json.to_string j)

(* Build the plan store both serve workloads read: every store key served
   once (generations fanned out on 2 domains), then saved. *)
let prep_cmd store =
  let open Tc_serve in
  let ctx =
    Cogent.Ctx.make ~refine:Round.refine ~measure:Tc_sim.Simkernel.gflops ~jobs:2 ()
  in
  match Serve.open_session ~store ctx with
  | Error m -> die "store %s: %s" store m
  | Ok session ->
      let keys = Workload.store_keys (size ()) in
      let report =
        Serve.run session
          (List.mapi
             (fun i r ->
               match Request.of_line ~default:ctx ~id:(i + 1) (Workload.line r) with
               | Ok q -> Ok q
               | Error m -> Error (i + 1, m))
             keys)
      in
      let s = report.Serve.summary in
      if s.Serve.errors > 0 || s.Serve.distinct <> List.length keys then
        die "store build: %d error(s), %d distinct keys of %d" s.Serve.errors
          s.Serve.distinct (List.length keys);
      Serve.close_session session;
      print_endline (Json.to_string (Json.Obj [ ("rows", Json.Int s.Serve.distinct) ]))

(* -- entry points --------------------------------------------------------- *)

let summaries reports = List.map (fun r -> (r, summarize r)) reports

(* The contract line: every end-to-end metric (or, traced, every
   per-layer metric) of one workload, last on stdout. *)
let driver_cmd w =
  let seed = int_opt "--seed" ~default:1 in
  let seconds = float_of_int (int_opt "--seconds" ~default:25) in
  let traced = int_opt "--trace" ~default:0 = 1 in
  let size = size () in
  let reports = summaries (invoke ~workloads:[ w ] ~seed ~seconds ~size ~traced) in
  List.iter (fun (r, s) -> print_summary ~seed r s) reports;
  write_out ~seed ~seconds reports;
  let _, s = List.hd reports in
  let metrics =
    if traced then
      List.map
        (fun (k, u) -> (k, Option.value ~default:nan (List.assoc_opt k s.layers), u))
        Round.layer_metrics
    else
      List.filter_map
        (fun m -> if List.mem_assoc m.name end_to_end then Some (m.name, m.value, m.unit) else None)
        s.metrics
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (s.notes = []));
            ("attempted", Json.Int s.attempted);
            ("failed", Json.Int s.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (k, v, u) ->
                     (k, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
                   metrics) );
          ]))

let all_cmd ~traced =
  let seed = int_opt "--seed" ~default:1 in
  let seconds = float_of_int (int_opt "--seconds" ~default:25) in
  let reports =
    summaries (invoke ~workloads:Workload.all ~seed ~seconds ~size:(size ()) ~traced)
  in
  List.iter (fun (r, s) -> print_summary ~seed r s) reports;
  if traced then
    List.iter
      (fun (r, _) -> Printf.printf "span file: %s\n" (trace_file r.w ~seed))
      reports;
  write_out ~seed ~seconds reports;
  exit (if List.for_all (fun (_, s) -> s.notes = []) reports then 0 else 1)

let dump_cmd wname =
  let w = workload_arg wname in
  List.iter print_endline
    (Workload.lines w ~size:(size ()) ~seed:(int_opt "--seed" ~default:1) ~round:1)

let () =
  match (args, opt "--workload", opt "--dump-workload") with
  | "round" :: w :: k :: _, _, _ -> round_cmd w k
  | "prep" :: store :: _, _, _ -> prep_cmd store
  | "run" :: _, _, _ -> all_cmd ~traced:false
  | "trace" :: _, _, _ -> all_cmd ~traced:true
  | "compare" :: a :: b :: _, _, _ -> compare_cmd a b
  | _, Some w, _ -> driver_cmd (workload_arg w)
  | _, _, Some w -> dump_cmd w
  | _ ->
      die
        "usage: main.exe (--workload W --seed N --seconds S --trace 0|1 | run | trace | \
         compare A.json B.json | --dump-workload W) [--seed N] [--seconds S] [--out FILE]"
