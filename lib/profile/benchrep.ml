module Json = Tc_obs.Json

type strategy = {
  strategy : string;
  metrics : (string * float) list;
  config : string option;
}

type entry = {
  name : string;
  expr : string;
  arch : string;
  precision : string;
  strategies : strategy list;
}

type doc = {
  target : string;
  wall_s : float;
  jobs : int;
  entries : entry list;
}

let schema = "cogent-bench/1"
let filename target = Printf.sprintf "BENCH_%s.json" target

(* ---- serialization ---- *)

let strategy_to_json s =
  Json.Obj
    [
      ("strategy", Json.String s.strategy);
      ( "metrics",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) s.metrics) );
      ( "config",
        match s.config with None -> Json.Null | Some c -> Json.String c );
    ]

let entry_to_json e =
  Json.Obj
    [
      ("name", Json.String e.name);
      ("expr", Json.String e.expr);
      ("arch", Json.String e.arch);
      ("precision", Json.String e.precision);
      ("strategies", Json.List (List.map strategy_to_json e.strategies));
    ]

let doc_fields d =
  [
    ("schema", Json.String schema);
    ("target", Json.String d.target);
    ("wall_s", Json.Float d.wall_s);
    ("jobs", Json.Int d.jobs);
    ("entries", Json.List (List.map entry_to_json d.entries));
  ]

let to_json d = Json.Obj (doc_fields d)

let baseline_to_json docs =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("targets", Json.List (List.map to_json docs));
    ]

let ( let* ) = Result.bind

let strategy_of_json j =
  let* strategy = Result.bind (Json.field "strategy" j) Json.as_string in
  let* metrics =
    match Json.member "metrics" j with
    | Some (Json.Obj kvs) ->
        Json.map_result
          (fun (k, v) ->
            let* f = Json.as_float v in
            Ok (k, f))
          kvs
    | _ -> Error "missing or malformed metrics"
  in
  let config =
    match Json.member "config" j with
    | Some (Json.String c) -> Some c
    | _ -> None
  in
  Ok { strategy; metrics; config }

let entry_of_json j =
  let* name = Result.bind (Json.field "name" j) Json.as_string in
  let* expr = Result.bind (Json.field "expr" j) Json.as_string in
  let* arch = Result.bind (Json.field "arch" j) Json.as_string in
  let* precision = Result.bind (Json.field "precision" j) Json.as_string in
  let* strategies =
    Result.bind (Json.field "strategies" j) Json.as_list
    |> fun l -> Result.bind l (Json.map_result strategy_of_json)
  in
  Ok { name; expr; arch; precision; strategies }

let of_json j =
  let* s = Result.bind (Json.field "schema" j) Json.as_string in
  if not (String.equal s schema) then
    Error (Printf.sprintf "unsupported schema %S (want %S)" s schema)
  else
    let* target = Result.bind (Json.field "target" j) Json.as_string in
    let* wall_s = Result.bind (Json.field "wall_s" j) Json.as_float in
    (* [jobs] arrived with the parallel runtime; older reports omit it. *)
    let* jobs =
      match Json.member "jobs" j with
      | None -> Ok 1
      | Some v ->
          let* f = Json.as_float v in
          Ok (int_of_float f)
    in
    let* entries =
      Result.bind (Result.bind (Json.field "entries" j) Json.as_list)
        (Json.map_result entry_of_json)
    in
    Ok { target; wall_s; jobs; entries }

let baseline_of_json j =
  let* s = Result.bind (Json.field "schema" j) Json.as_string in
  if not (String.equal s schema) then
    Error (Printf.sprintf "unsupported schema %S (want %S)" s schema)
  else
    Result.bind
      (Result.bind (Json.field "targets" j) Json.as_list)
      (Json.map_result of_json)

let write ~path d =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string_pretty (to_json d));
      output_char oc '\n')

let read ~path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error e
  | contents -> Result.bind (Json.parse contents) of_json

let equal_modulo_wall a b =
  { a with wall_s = 0.0; jobs = 1 } = { b with wall_s = 0.0; jobs = 1 }

(* ---- regression gating ---- *)

type direction = Higher_better | Lower_better | Exact

type tolerance = { metric : string; rel : float; direction : direction }

let default_tolerances =
  [
    { metric = "gflops"; rel = 0.02; direction = Higher_better };
    { metric = "transactions"; rel = 0.0; direction = Lower_better };
    { metric = "cost"; rel = 0.0; direction = Lower_better };
    { metric = "enumerated"; rel = 0.0; direction = Exact };
    { metric = "kept"; rel = 0.0; direction = Exact };
    { metric = "bound_aborted"; rel = 0.0; direction = Exact };
    { metric = "bound_abort_rate"; rel = 0.0; direction = Exact };
  ]

type verdict = Regression | Improvement | Within | Missing | Added

type delta = {
  entry : string;
  strategy : string;
  metric : string;
  baseline : float option;
  current : float option;
  rel_change : float;
  verdict : verdict;
}

(* Relative comparisons need slack for the %g float round-trip through
   JSON (~1e-6 relative), even at "zero allowance". *)
let float_slack = 1e-5

let judge tol ~baseline ~current =
  let denom = Float.max (Float.abs baseline) 1e-12 in
  let rel = (current -. baseline) /. denom in
  let allowed = tol.rel +. float_slack in
  let verdict =
    match tol.direction with
    | Higher_better ->
        if rel < -.allowed then Regression
        else if rel > allowed then Improvement
        else Within
    | Lower_better ->
        if rel > allowed then Regression
        else if rel < -.allowed then Improvement
        else Within
    | Exact -> if Float.abs rel > allowed then Regression else Within
  in
  (rel, verdict)

let diff ?(tolerances = default_tolerances) ~baseline current =
  let tol_of m =
    List.find_opt (fun (t : tolerance) -> String.equal t.metric m) tolerances
  in
  let find_entry doc n =
    List.find_opt (fun e -> String.equal e.name n) doc.entries
  in
  let find_strategy (e : entry) n =
    List.find_opt (fun (s : strategy) -> String.equal s.strategy n) e.strategies
  in
  List.concat_map
    (fun (be : entry) ->
      match find_entry current be.name with
      | None ->
          [
            {
              entry = be.name;
              strategy = "*";
              metric = "*";
              baseline = None;
              current = None;
              rel_change = 0.0;
              verdict = Missing;
            };
          ]
      | Some ce ->
          List.concat_map
            (fun (bs : strategy) ->
              match find_strategy ce bs.strategy with
              | None ->
                  [
                    {
                      entry = be.name;
                      strategy = bs.strategy;
                      metric = "*";
                      baseline = None;
                      current = None;
                      rel_change = 0.0;
                      verdict = Missing;
                    };
                  ]
              | Some cs ->
                  let gated =
                    List.concat_map
                      (fun (m, bv) ->
                        match List.assoc_opt m cs.metrics with
                        | None ->
                            [
                              {
                                entry = be.name;
                                strategy = bs.strategy;
                                metric = m;
                                baseline = Some bv;
                                current = None;
                                rel_change = 0.0;
                                verdict = Missing;
                              };
                            ]
                        | Some cv -> (
                            match tol_of m with
                            | None -> []
                            | Some tol ->
                                let rel_change, verdict =
                                  judge tol ~baseline:bv ~current:cv
                                in
                                [
                                  {
                                    entry = be.name;
                                    strategy = bs.strategy;
                                    metric = m;
                                    baseline = Some bv;
                                    current = Some cv;
                                    rel_change;
                                    verdict;
                                  };
                                ]))
                      bs.metrics
                  in
                  let added =
                    List.filter_map
                      (fun (m, cv) ->
                        if List.mem_assoc m bs.metrics then None
                        else
                          Some
                            {
                              entry = be.name;
                              strategy = bs.strategy;
                              metric = m;
                              baseline = None;
                              current = Some cv;
                              rel_change = 0.0;
                              verdict = Added;
                            })
                      cs.metrics
                  in
                  gated @ added)
            be.strategies)
    baseline.entries

let regressions deltas =
  List.filter
    (fun d -> match d.verdict with Regression | Missing -> true | _ -> false)
    deltas

let render_delta buf d =
  let v = function
    | None -> "-"
    | Some f -> Printf.sprintf "%.6g" f
  in
  Buffer.add_string buf
    (Printf.sprintf "  %-24s %-10s %-14s %12s -> %-12s %+.2f%%\n" d.entry
       d.strategy d.metric (v d.baseline) (v d.current)
       (100.0 *. d.rel_change))

let render_diff ~target deltas =
  let buf = Buffer.create 512 in
  let regs = regressions deltas in
  let imps = List.filter (fun d -> d.verdict = Improvement) deltas in
  let within = List.length (List.filter (fun d -> d.verdict = Within) deltas) in
  let added = List.length (List.filter (fun d -> d.verdict = Added) deltas) in
  Buffer.add_string buf
    (Printf.sprintf "%s: %d regression(s), %d improvement(s), %d within \
                     tolerance, %d added\n"
       target (List.length regs) (List.length imps) within added);
  if regs <> [] then begin
    Buffer.add_string buf "regressions:\n";
    List.iter (render_delta buf) regs
  end;
  if imps <> [] then begin
    Buffer.add_string buf "improvements:\n";
    List.iter (render_delta buf) imps
  end;
  Buffer.contents buf
