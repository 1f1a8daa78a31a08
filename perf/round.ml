(* One round of one workload, run inside a fresh child process.

   A round serves its workload's request list once, timing only the calls
   into the system.  The client is closed loop: one request (or batch) is
   in flight at a time.  Oracle checks, operand generation and store
   copies happen between timed calls. *)

open Tc_serve
module Json = Tc_obs.Json

let refine = 8

type st = {
  spans : Spans.t option;  (** [Some] in the traced round *)
  mutable lat : float list;  (** one sample per request or batch, s *)
  mutable ok : int;  (** requests answered and checked *)
  mutable attempted : int;
  mutable busy : float;  (** summed duration of the timed calls *)
  mutable setup : float;  (** summed duration of the set-up calls *)
  mutable slices : int;  (** host reference slices run, one per timed call *)
  mutable slices_s : float;
  mutable failed : int;
  mutable failures : string list;
  fp : Buffer.t;  (** deterministic outputs *)
  mutable gflops : float list;  (** chosen-kernel (or engine) GFLOPS *)
  mutable generations : int;
  tallies : (string, float) Hashtbl.t;  (** per-layer counts (traced) *)
}

let fail st msg =
  st.failed <- st.failed + 1;
  if List.length st.failures < 5 then st.failures <- msg :: st.failures

let traced st = Option.is_some st.spans
let span st ?req name f = Spans.with_span st.spans ?req name f

let tally st k v =
  Hashtbl.replace st.tallies k
    (v +. Option.value ~default:0.0 (Hashtbl.find_opt st.tallies k))

let get st k = Option.value ~default:0.0 (Hashtbl.find_opt st.tallies k)
let protect f = try f () with e -> Error (Printexc.to_string e)
let ( let* ) = Result.bind

let elapsed f =
  let t0 = Stats.now () in
  let r = f () in
  (r, Stats.now () -. t0)

(* One timed call serving [requests] requests: one latency sample, then
   one host reference slice (see [Host]). *)
let timed st ~requests f =
  let r, dt = elapsed f in
  st.lat <- dt :: st.lat;
  st.busy <- st.busy +. dt;
  st.attempted <- st.attempted + requests;
  st.slices <- st.slices + 1;
  st.slices_s <- st.slices_s +. Host.slice ();
  r

(* Session load and save count in the throughput wall time, not as
   latency samples. *)
let restart st f =
  let r, dt = elapsed f in
  st.busy <- st.busy +. dt;
  r

let setup st f =
  let r, dt = elapsed f in
  st.setup <- st.setup +. dt;
  r

(* The measure callback: the simulator stands in for timing a kernel. *)
let measure st plan = span st "refine.measure" (fun () -> Tc_sim.Simkernel.gflops plan)
let context st ~jobs = Cogent.Ctx.make ~refine ~measure:(measure st) ~jobs ()

let parse ~ctx ~id line =
  let* q = Request.of_line ~default:ctx ~id line in
  let* problem = Request.problem q in
  Ok (q, problem)

let pipeline_tally st (d : Cogent.Driver.t) =
  let s = d.Cogent.Driver.prune_stats in
  tally st "plans" 1.0;
  tally st "enumerated" (float_of_int s.Cogent.Prune.enumerated);
  tally st "kept" (float_of_int s.Cogent.Prune.kept);
  tally st "bound_aborted" (float_of_int d.Cogent.Driver.bound_aborted)

let record_plan st ~key (d : Cogent.Driver.t) =
  let s = d.Cogent.Driver.prune_stats in
  let plan = d.Cogent.Driver.plan in
  let g = Tc_sim.Simkernel.gflops plan in
  st.gflops <- g :: st.gflops;
  Printf.bprintf st.fp "%s|%s|%s|%d|%d|%d|%h\n" key
    (Tc_gpu.Schema.to_string plan.Cogent.Plan.schema)
    (Format.asprintf "%a" Cogent.Mapping.pp plan.Cogent.Plan.mapping)
    s.Cogent.Prune.enumerated s.Cogent.Prune.kept d.Cogent.Driver.bound_aborted g

(* -- plan-cold --------------------------------------------------------- *)

let plan_cold st ~size ~seed ~round =
  let ctx = setup st (fun () -> context st ~jobs:1) in
  Cogent.Ctx.install_jobs ctx;
  (* a fresh cache: every request is a miss *)
  let cache = setup st Cogent.Cache.create in
  List.iteri
    (fun i r ->
      let req = i + 1 and line = Workload.line r in
      let res =
        timed st ~requests:1 (fun () ->
            span st ~req "request" (fun () ->
                protect (fun () ->
                    let* q, problem =
                      span st "request.parse" (fun () -> parse ~ctx ~id:req line)
                    in
                    let rctx = Request.ctx ~default:ctx q in
                    let* d =
                      Result.map_error Cogent.Driver.error_to_string
                        (span st "cache.find_or_generate" (fun () ->
                             Cogent.Cache.find_or_generate_ctx cache rctx problem))
                    in
                    let code =
                      span st "codegen.emit" (fun () ->
                          Cogent.Codegen.emit d.Cogent.Driver.plan)
                    in
                    Ok (rctx, problem, d, code))))
      in
      match res with
      | Error m -> fail st (line ^ ": " ^ m)
      | Ok (rctx, problem, d, code) ->
          st.ok <- st.ok + 1;
          record_plan st ~key:(Cogent.Cache.key rctx problem) d;
          Printf.bprintf st.fp "%s\n" (Digest.to_hex (Digest.string code));
          if traced st then begin
            pipeline_tally st d;
            tally st "codegen.bytes" (float_of_int (String.length code));
            span st ~req "probe.pipeline.search" (fun () ->
                ignore
                  (Cogent.Pipeline.search ~topk:refine rctx.Cogent.Ctx.arch
                     rctx.Cogent.Ctx.precision problem));
            span st ~req "probe.codegen.lower" (fun () ->
                ignore (Cogent.Codegen.lower d.Cogent.Driver.plan))
          end)
    (Workload.plan_cold ~size ~seed ~round)

(* -- verify ------------------------------------------------------------ *)

let max_abs t =
  Array.fold_left
    (fun m x -> Float.max m (Float.abs x))
    0.0 (Tc_tensor.Dense.unsafe_data t)

let verify_one st ~ctx ~seed ~req line =
  let open Tc_tensor in
  match parse ~ctx ~id:req line with
  | Error m ->
      st.attempted <- st.attempted + 1;
      fail st (line ^ ": " ^ m)
  | Ok (q, problem) -> (
      let rctx = Request.ctx ~default:ctx q in
      let info = Tc_expr.Problem.info problem in
      let orig = info.Tc_expr.Classify.original in
      let operand k (t : Tc_expr.Ast.tensor_ref) =
        Dense.random
          ~seed:((seed * 1_000_003) + (2 * req) + k)
          (Shape.of_indices ~sizes:(Tc_expr.Problem.sizes problem) t.Tc_expr.Ast.indices)
      in
      let lhs = operand 0 orig.Tc_expr.Ast.lhs and rhs = operand 1 orig.Tc_expr.Ast.rhs in
      let res =
        timed st ~requests:1 (fun () ->
            span st ~req "request" (fun () ->
                protect (fun () ->
                    let* d =
                      Result.map_error Cogent.Driver.error_to_string
                        (span st "driver.run" (fun () -> Cogent.Driver.run rctx problem))
                    in
                    let plan = d.Cogent.Driver.plan in
                    let out =
                      span st "interp.execute" (fun () -> Cogent.Interp.execute plan ~lhs ~rhs)
                    in
                    let m = span st "interp.measure" (fun () -> Cogent.Interp.measure plan) in
                    Ok (d, out, m))))
      in
      match res with
      | Error m -> fail st (line ^ ": " ^ m)
      | Ok (d, out, m) ->
          let plan = d.Cogent.Driver.plan in
          let expected =
            span st ~req "check.contract" (fun () ->
                Contract_ref.contract ~out_indices:info.Tc_expr.Classify.externals lhs rhs)
          in
          let e =
            span st ~req "check.exact" (fun () ->
                Tc_sim.Simkernel.transactions_exact plan.Cogent.Plan.precision
                  plan.Cogent.Plan.problem plan.Cogent.Plan.mapping)
          in
          let diff = Dense.max_abs_diff expected out and scale = max_abs expected in
          if not (diff <= 1e-9 *. scale) then
            fail st (Printf.sprintf "%s: max |diff| %g against max |ref| %g" line diff scale)
          else if
            Cogent.Interp.(m.tx_lhs, m.tx_rhs, m.tx_out) <> Cogent.Cost.(e.lhs, e.rhs, e.out)
          then fail st (line ^ ": measured transactions differ from transactions_exact")
          else begin
            st.ok <- st.ok + 1;
            record_plan st ~key:line d;
            if traced st then begin
              pipeline_tally st d;
              tally st "fma_padded" m.Cogent.Interp.fma_padded;
              tally st "fma_useful" m.Cogent.Interp.fma_useful
            end
          end)

let verify st ~size ~seed ~round =
  let ctx = setup st (fun () -> context st ~jobs:1) in
  Cogent.Ctx.install_jobs ctx;
  List.iteri
    (fun i r -> verify_one st ~ctx ~seed ~req:(i + 1) (Workload.line r))
    (Workload.verify ~size ~seed ~round)

(* -- serve-warm and serve-mixed ---------------------------------------- *)

let open_session st ~ctx ~store =
  match span st "serve.open_session" (fun () -> Serve.open_session ~store ctx) with
  | Ok s -> s
  | Error m -> failwith ("open_session: " ^ m)

let store_bytes st ~dir =
  Hashtbl.replace st.tallies "store_bytes"
    (float_of_int (Unix.stat (Planstore.file ~dir)).Unix.st_size)

(* Plans of the store, for the probe calls of the traced round. *)
let store_plans st ~store =
  let plans = Hashtbl.create 1024 in
  (if traced st then
     match Planstore.load ~dir:store with
     | Ok rows -> List.iter (fun (k, d) -> Hashtbl.replace plans k d) rows
     | Error m -> failwith ("Planstore.load: " ^ m));
  plans

(* Unit costs of the dispatch race and regret that [Serve.run] performs
   per request, priced on one request's stored plan. *)
let probe st ~ctx ~plans ~req q (o : Serve.outcome) =
  match (Hashtbl.find_opt plans o.Serve.key, Request.problem q) with
  | Some d, Ok own ->
      let plan = d.Cogent.Driver.plan in
      let rctx = Request.ctx ~default:ctx q in
      span st ~req "probe.sim.run" (fun () -> ignore (Tc_sim.Simkernel.run plan));
      span st ~req "probe.ttgt.run" (fun () ->
          ignore (Tc_ttgt.Ttgt.run_ctx rctx plan.Cogent.Plan.problem));
      span st ~req "probe.audit.regret" (fun () ->
          ignore (Tc_audit.Audit.dispatch_regret ~ctx:rctx ~own plan))
  | _ -> ()

(* One batch: parse every line, then one [Serve.run]; [~warm] demands
   that every request is answered from the store. *)
let serve_batch st ~ctx ~plans ~id ~warm session batch =
  let lines = List.map Workload.line batch in
  let req = !id + 1 in
  let res =
    timed st ~requests:(List.length lines) (fun () ->
        span st ~req "batch" (fun () ->
            protect (fun () ->
                let items =
                  span st "request.parse" (fun () ->
                      List.map
                        (fun l ->
                          incr id;
                          match Request.of_line ~default:ctx ~id:!id l with
                          | Ok q -> Ok q
                          | Error m -> Error (!id, m))
                        lines)
                in
                Ok (items, span st "serve.run" (fun () -> Serve.run session items)))))
  in
  match res with
  | Error m -> List.iter (fun _ -> fail st m) lines
  | Ok (items, report) ->
      let s = report.Serve.summary in
      st.generations <- st.generations + s.Serve.generations;
      if warm && s.Serve.generations > 0 then
        fail st (Printf.sprintf "%d plan generation(s) in a warm batch" s.Serve.generations);
      List.iteri
        (fun k ((r : Serve.response), item) ->
          let line = List.nth lines k in
          match (r.Serve.result, item) with
          | Ok o, Ok q ->
              if warm && not o.Serve.cached then fail st (line ^ ": missed the warm store")
              else begin
                st.ok <- st.ok + 1;
                st.gflops <- o.Serve.gflops :: st.gflops;
                Printf.bprintf st.fp "%s|%s|%b|%h\n" o.Serve.key (Serve.outcome_strategy o)
                  o.Serve.cached o.Serve.gflops;
                if traced st && k = 0 then probe st ~ctx ~plans ~req q o
              end
          | Error e, _ -> fail st (line ^ ": " ^ Serve.error_to_string e)
          | Ok _, Error (_, m) -> fail st (line ^ ": " ^ m))
        (List.combine report.Serve.responses items);
      if traced st then begin
        tally st "dispatched" (float_of_int (s.Serve.requests - s.Serve.errors));
        tally st "hits" (float_of_int s.Serve.hits);
        tally st "to_classic" (float_of_int (s.Serve.to_cogent - s.Serve.to_pipelined));
        tally st "to_pipelined" (float_of_int s.Serve.to_pipelined);
        tally st "to_ttgt" (float_of_int s.Serve.to_ttgt);
        Hashtbl.replace st.tallies "rows" (float_of_int s.Serve.loaded)
      end

let serve_warm st ~size ~seed ~round ~store =
  let ctx = context st ~jobs:1 in
  let session = setup st (fun () -> open_session st ~ctx ~store) in
  store_bytes st ~dir:store;
  let plans = store_plans st ~store in
  let id = ref 0 in
  List.iter
    (serve_batch st ~ctx ~plans ~id ~warm:true session)
    (Workload.serve_warm ~size ~seed ~round)

let copy_file ~src ~dst =
  let data = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc data)

(* The round starts from a copy of the store and runs session lifetimes
   back to back: load, serve the batches (the misses fan out on 2
   domains), save.  Every load and save counts in the throughput wall
   time; the first load is also set-up time. *)
let serve_mixed st ~size ~seed ~round ~store ~dir =
  let ctx = context st ~jobs:2 in
  let work = Filename.concat dir "store" in
  Sys.mkdir work 0o755;
  copy_file ~src:(Planstore.file ~dir:store) ~dst:(Planstore.file ~dir:work);
  let load () = restart st (fun () -> open_session st ~ctx ~store:work) in
  let first = setup st load in
  let plans = store_plans st ~store in
  let id = ref 0 in
  List.iteri
    (fun l batches ->
      let session = if l = 0 then first else load () in
      List.iter (serve_batch st ~ctx ~plans ~id ~warm:false session) batches;
      restart st (fun () ->
          span st "serve.close_session" (fun () -> Serve.close_session session)))
    (Workload.serve_mixed ~size ~seed ~round);
  store_bytes st ~dir:work

(* -- per-layer metrics --------------------------------------------------- *)

let layer_metrics =
  [
    ("request.parse_us", "us");
    ("pipeline.search_us", "us");
    ("pipeline.enumerated", "count");
    ("pipeline.kept", "count");
    ("pipeline.bound_abort_rate", "ratio");
    ("refine.measure_calls", "count");
    ("refine.measure_us", "us");
    ("codegen.lower_us", "us");
    ("codegen.emit_us", "us");
    ("codegen.bytes_per_kernel", "B");
    ("dispatch.us_per_hit", "us");
    ("sim.run_us", "us");
    ("ttgt.run_us", "us");
    ("audit.regret_us", "us");
    ("serve.to_cogent", "ratio");
    ("serve.to_pipelined", "ratio");
    ("serve.to_ttgt", "ratio");
    ("cache.hit_ratio", "ratio");
    ("planstore.load_ms", "ms");
    ("planstore.save_ms", "ms");
    ("planstore.rows", "count");
    ("planstore.bytes", "B");
    ("pool.tasks", "count");
    ("pool.waits", "count");
    ("interp.execute_ms", "ms");
    ("interp.measure_ms", "ms");
    ("interp.ns_per_padded_fma", "ns");
    ("interp.padding_ratio", "ratio");
    ("gc.minor_words_per_req", "words");
    ("gc.major_collections", "count");
    ("check.contract_ms", "ms");
    ("check.exact_us", "us");
    ("trace.layer_residual_pct", "%");
    ("trace.overhead_pct", "%");
  ]

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Every per-layer metric except [trace.overhead_pct], which needs the
   untraced rounds and is added by the parent. *)
let layers st sp ~root ~pool ~majors =
  let rows = Spans.table sp in
  let row name = List.find_opt (fun r -> r.Spans.layer = name) rows in
  let total name = match row name with Some r -> r.Spans.total_s | None -> 0.0 in
  let calls name = match row name with Some r -> float_of_int r.Spans.calls | None -> 0.0 in
  let mean name = ratio (total name) (calls name) in
  let root_words = match row root with Some r -> r.Spans.words | None -> 0.0 in
  let requests = float_of_int st.attempted in
  (* plan searches: from [Driver.t] where the benchmark sees it, else the
     generations [Serve.run] reports *)
  let plans = Float.max (get st "plans") (float_of_int st.generations) in
  [
    ("request.parse_us", ratio (total "request.parse") requests *. 1e6);
    ("pipeline.search_us", mean "probe.pipeline.search" *. 1e6);
    ("pipeline.enumerated", ratio (get st "enumerated") plans);
    ("pipeline.kept", ratio (get st "kept") plans);
    ("pipeline.bound_abort_rate", ratio (get st "bound_aborted") (get st "kept"));
    ("refine.measure_calls", ratio (calls "refine.measure") plans);
    ("refine.measure_us", mean "refine.measure" *. 1e6);
    ("codegen.lower_us", mean "probe.codegen.lower" *. 1e6);
    ("codegen.emit_us", mean "codegen.emit" *. 1e6);
    ("codegen.bytes_per_kernel", ratio (get st "codegen.bytes") (calls "codegen.emit"));
    ("dispatch.us_per_hit", ratio (total "serve.run") (get st "hits") *. 1e6);
    ("sim.run_us", mean "probe.sim.run" *. 1e6);
    ("ttgt.run_us", mean "probe.ttgt.run" *. 1e6);
    ("audit.regret_us", mean "probe.audit.regret" *. 1e6);
    ("serve.to_cogent", ratio (get st "to_classic") (get st "dispatched"));
    ("serve.to_pipelined", ratio (get st "to_pipelined") (get st "dispatched"));
    ("serve.to_ttgt", ratio (get st "to_ttgt") (get st "dispatched"));
    ("cache.hit_ratio", ratio (get st "hits") (get st "dispatched"));
    ("planstore.load_ms", mean "serve.open_session" *. 1e3);
    ("planstore.save_ms", mean "serve.close_session" *. 1e3);
    ("planstore.rows", get st "rows");
    ("planstore.bytes", get st "store_bytes");
    ("pool.tasks", fst pool);
    ("pool.waits", snd pool);
    ("interp.execute_ms", mean "interp.execute" *. 1e3);
    ("interp.measure_ms", mean "interp.measure" *. 1e3);
    ("interp.ns_per_padded_fma", ratio (total "interp.execute") (get st "fma_padded") *. 1e9);
    ("interp.padding_ratio", ratio (get st "fma_padded") (get st "fma_useful"));
    ("gc.minor_words_per_req", ratio root_words requests);
    ("gc.major_collections", majors);
    ("check.contract_ms", mean "check.contract" *. 1e3);
    ("check.exact_us", mean "check.exact" *. 1e6);
    ("trace.layer_residual_pct", Spans.residual sp ~root *. 100.0);
  ]

(* -- the round ----------------------------------------------------------- *)

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  let kb =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec go () =
            match In_channel.input_line ic with
            | None -> None
            | Some l when String.starts_with ~prefix:"VmHWM:" l ->
                Scanf.sscanf l "VmHWM: %f kB" Option.some
            | Some _ -> go ()
          in
          go ())
    with Sys_error _ -> None
  in
  match kb with
  | Some kb -> kb /. 1024.0
  | None -> float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * 8) /. 1e6

let pool_counters () =
  let v k = Option.value ~default:0.0 (Tc_obs.Metrics.value Tc_obs.Metrics.global k) in
  (v "par.pool.tasks", v "par.pool.waits")

(* Run one round and describe it as JSON.  [spawned_ns] is the parent's
   clock reading just before it started this process, so set-up time
   covers process start and library initialisation as well as the
   workload's own set-up calls. *)
let run ~entry_ns ~spawned_ns (w : Workload.t) ~size ~seed ~round ~dir ~store ~trace_file =
  let st =
    {
      spans = Option.map (fun _ -> Spans.create ()) trace_file;
      lat = [];
      ok = 0;
      attempted = 0;
      busy = 0.0;
      setup = 0.0;
      slices = 0;
      slices_s = 0.0;
      failed = 0;
      failures = [];
      fp = Buffer.create 4096;
      gflops = [];
      generations = 0;
      tallies = Hashtbl.create 16;
    }
  in
  let pool0 = pool_counters () in
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  (match w with
  | Workload.Plan_cold -> plan_cold st ~size ~seed ~round
  | Verify -> verify st ~size ~seed ~round
  | Serve_warm -> serve_warm st ~size ~seed ~round ~store
  | Serve_mixed -> serve_mixed st ~size ~seed ~round ~store ~dir);
  let traced_json =
    match (st.spans, trace_file) with
    | Some sp, Some file ->
        let pool1 = pool_counters () in
        let root = match w with Plan_cold | Verify -> "request" | _ -> "batch" in
        Out_channel.with_open_text file (fun oc ->
            Out_channel.output_string oc (Json.to_string (Spans.to_chrome sp)));
        let majors = (Gc.quick_stat ()).Gc.major_collections - majors0 in
        [
          ( "layers",
            Json.Obj
              (List.map
                 (fun (k, v) -> (k, Json.Float v))
                 (layers st sp ~root
                    ~pool:(fst pool1 -. fst pool0, snd pool1 -. snd pool0)
                    ~majors:(float_of_int majors))) );
          ( "table",
            Json.List
              (List.map
                 (fun r ->
                   Json.Obj
                     [
                       ("layer", Json.String r.Spans.layer);
                       ("calls", Json.Int r.Spans.calls);
                       ("total_s", Json.Float r.Spans.total_s);
                       ("self_s", Json.Float r.Spans.self_s);
                     ])
                 (Spans.table sp)) );
        ]
    | _ -> []
  in
  Json.Obj
    ([
       ( "setup_s",
         Json.Float ((Int64.to_float (Int64.sub entry_ns spawned_ns) *. 1e-9) +. st.setup) );
       ("attempted", Json.Int st.attempted);
       ("ok", Json.Int st.ok);
       ("failed", Json.Int st.failed);
       ("failures", Json.List (List.rev_map (fun m -> Json.String m) st.failures));
       ("busy_s", Json.Float st.busy);
       ("host_factor", Json.Float (Host.factor ~slices:st.slices ~total:st.slices_s));
       ("lat_s", Json.List (List.rev_map (fun x -> Json.Float x) st.lat));
       ("gflops_geomean", Json.Float (Stats.geomean st.gflops));
       ( "fingerprint",
         (* order-free: rounds send the same requests in different orders *)
         Json.String
           (Digest.to_hex
              (Digest.string
                 (String.concat "\n"
                    (List.sort compare (String.split_on_char '\n' (Buffer.contents st.fp)))))) );
       ("generations", Json.Int st.generations);
       ("rss_mb", Json.Float (peak_rss_mb ()));
     ]
    @ traced_json)
