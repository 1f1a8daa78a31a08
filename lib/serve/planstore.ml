open Tc_tensor
open Tc_gpu
open Tc_expr
module J = Tc_obs.Json

let schema = "cogent-planstore/1"
let file ~dir = Filename.concat dir "plans.jsonl"
let ( let* ) = Result.bind

(* ---- decoding primitives ---- *)

let as_index s =
  if String.length s = 1 && Index.is_valid s.[0] then Ok s.[0]
  else Error (Printf.sprintf "bad index %S" s)

(* ---- mapping codec ---- *)

let binding_to_json (b : Cogent.Mapping.binding) =
  J.List [ J.String (Index.to_string b.Cogent.Mapping.index); J.Int b.tile ]

let binding_of_json j =
  let* l = J.as_list j in
  match l with
  | [ i; t ] ->
      let* s = J.as_string i in
      let* index = as_index s in
      let* tile = J.as_int t in
      Ok { Cogent.Mapping.index; tile }
  | _ -> Error "binding must be [index, tile]"

let bindings_to_json bs = J.List (List.map binding_to_json bs)

let bindings_of_json j =
  let* l = J.as_list j in
  J.map_result binding_of_json l

let mapping_to_json (m : Cogent.Mapping.t) =
  J.Obj
    [
      ("tbx", bindings_to_json m.Cogent.Mapping.tbx);
      ("regx", bindings_to_json m.regx);
      ("tby", bindings_to_json m.tby);
      ("regy", bindings_to_json m.regy);
      ("tbk", bindings_to_json m.tbk);
      ("grid", J.String (Index.list_to_string m.grid));
    ]

let mapping_of_json j =
  let part name = Result.bind (J.field name j) bindings_of_json in
  let* tbx = part "tbx" in
  let* regx = part "regx" in
  let* tby = part "tby" in
  let* regy = part "regy" in
  let* tbk = part "tbk" in
  let* grid_s = Result.bind (J.field "grid" j) J.as_string in
  let* grid =
    J.map_result
      (fun c -> as_index (String.make 1 c))
      (List.init (String.length grid_s) (String.get grid_s))
  in
  Ok { Cogent.Mapping.tbx; regx; tby; regy; tbk; grid }

(* ---- prune-stats codec ---- *)

let reason_of_slug s =
  match
    List.find_opt
      (fun r -> Cogent.Prune.reason_slug r = s)
      Cogent.Prune.all_reasons
  with
  | Some r -> Ok r
  | None -> Error (Printf.sprintf "unknown prune rule %S" s)

let stats_to_json (s : Cogent.Prune.stats) =
  J.Obj
    [
      ("enumerated", J.Int s.Cogent.Prune.enumerated);
      ("kept", J.Int s.kept);
      ( "pruned",
        J.List
          (List.map
             (fun (r, n) ->
               J.List [ J.String (Cogent.Prune.reason_slug r); J.Int n ])
             s.pruned) );
      ("hardware_rejects", J.Int s.hardware_rejects);
      ("performance_rejects", J.Int s.performance_rejects);
      ("relaxed", J.Bool s.relaxed);
      ("relax_attempts", J.Int s.relax_attempts);
    ]

let stats_of_json j =
  let* enumerated = Result.bind (J.field "enumerated" j) J.as_int in
  let* kept = Result.bind (J.field "kept" j) J.as_int in
  let* pruned_l = Result.bind (J.field "pruned" j) J.as_list in
  let* pruned =
    J.map_result
      (fun row ->
        let* l = J.as_list row in
        match l with
        | [ slug; n ] ->
            let* s = J.as_string slug in
            let* r = reason_of_slug s in
            let* n = J.as_int n in
            Ok (r, n)
        | _ -> Error "pruned row must be [rule, count]")
      pruned_l
  in
  let* hardware_rejects =
    Result.bind (J.field "hardware_rejects" j) J.as_int
  in
  let* performance_rejects =
    Result.bind (J.field "performance_rejects" j) J.as_int
  in
  let* relaxed = Result.bind (J.field "relaxed" j) J.as_bool in
  let* relax_attempts = Result.bind (J.field "relax_attempts" j) J.as_int in
  Ok
    {
      Cogent.Prune.enumerated;
      kept;
      pruned;
      hardware_rejects;
      performance_rejects;
      relaxed;
      relax_attempts;
    }

(* ---- entry codec ---- *)

let entry_to_json (r : Cogent.Driver.t) =
  let plan = r.Cogent.Driver.plan in
  let problem = plan.Cogent.Plan.problem in
  J.Obj
    [
      ( "expr",
        J.String (Ast.tccg_string (Problem.info problem).Classify.original) );
      ( "sizes",
        J.Obj
          (List.map
             (fun (i, n) -> (Index.to_string i, J.Int n))
             (Sizes.to_list (Problem.sizes problem))) );
      ("arch", J.String plan.Cogent.Plan.arch.Arch.name);
      ("precision", J.String (Precision.to_string plan.Cogent.Plan.precision));
      ("kernel_schema", J.String (Schema.to_string plan.Cogent.Plan.schema));
      ("mapping", mapping_to_json plan.Cogent.Plan.mapping);
      ( "ranked",
        J.List
          (List.map
             (fun (m, c) -> J.List [ mapping_to_json m; J.Float c ])
             r.ranked) );
      ("prune", stats_to_json r.prune_stats);
      ("naive_space", J.Float r.naive_space);
      ("degraded", J.Bool r.degraded);
      ("bound_aborted", J.Int r.bound_aborted);
    ]

let entry_of_json j =
  let* expr = Result.bind (J.field "expr" j) J.as_string in
  let* sizes_j = J.field "sizes" j in
  let* sizes =
    match sizes_j with
    | J.Obj kvs ->
        J.map_result
          (fun (k, v) ->
            let* i = as_index k in
            let* n = J.as_int v in
            Ok (i, n))
          kvs
    | _ -> Error "field \"sizes\" must be an object"
  in
  let* problem = Problem.of_string expr ~sizes in
  let* arch_s = Result.bind (J.field "arch" j) J.as_string in
  let* arch =
    match Arch.by_name arch_s with
    | Some a -> Ok a
    | None -> Error (Printf.sprintf "unknown device %S" arch_s)
  in
  let* prec_s = Result.bind (J.field "precision" j) J.as_string in
  let* precision = Precision.of_string prec_s in
  let* mapping = Result.bind (J.field "mapping" j) mapping_of_json in
  let* plan =
    (* [Plan.make] recomputes the model cost — deterministic, so the
       reloaded entry is bit-identical to the one that was saved. *)
    match Cogent.Plan.make ~problem ~mapping ~arch ~precision with
    | p -> Ok p
    | exception Invalid_argument m -> Error m
  in
  (* Lenient: rows written before kernel schemas existed lack the tag and
     load as classic; a present tag must name a schema still feasible for
     the row's mapping (feasibility is recomputed, like the cost). *)
  let* plan =
    match J.field "kernel_schema" j with
    | Error _ -> Ok plan
    | Ok v -> (
        let* s = J.as_string v in
        match Schema.of_string s with
        | None -> Error (Printf.sprintf "unknown kernel schema %S" s)
        | Some sc -> (
            match Cogent.Plan.with_schema sc plan with
            | p -> Ok p
            | exception Invalid_argument m -> Error m))
  in
  let* ranked_l = Result.bind (J.field "ranked" j) J.as_list in
  let* ranked =
    J.map_result
      (fun row ->
        let* l = J.as_list row in
        match l with
        | [ m; c ] ->
            let* m = mapping_of_json m in
            let* c = J.as_float c in
            Ok (m, c)
        | _ -> Error "ranked row must be [mapping, cost]")
      ranked_l
  in
  let* prune_stats = Result.bind (J.field "prune" j) stats_of_json in
  let* naive_space = Result.bind (J.field "naive_space" j) J.as_float in
  let* degraded = Result.bind (J.field "degraded" j) J.as_bool in
  (* Lenient: rows written before the streaming pipeline lack the counter;
     0 keeps them loadable. *)
  let* bound_aborted =
    match J.field "bound_aborted" j with
    | Ok v -> J.as_int v
    | Error _ -> Ok 0
  in
  Ok
    {
      Cogent.Driver.plan;
      ranked;
      prune_stats;
      naive_space;
      degraded;
      bound_aborted;
    }

(* ---- store I/O ---- *)

let row_of_json j =
  let* k = Result.bind (J.field "key" j) J.as_string in
  let* entry = Result.bind (J.field "entry" j) entry_of_json in
  Ok (k, entry)

let load ~dir =
  Tc_obs.Jsonl.load ~kind:"plan store" ~row:"plan-store row"
    ~metrics:"cogent.serve.planstore" ~schema (file ~dir) row_of_json

let save ~dir rows =
  Tc_obs.Jsonl.save ~schema (file ~dir)
    (fun (k, r) -> J.Obj [ ("key", J.String k); ("entry", entry_to_json r) ])
    rows
