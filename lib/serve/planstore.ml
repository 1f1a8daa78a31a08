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

let binding_of_json = function
  | J.List [ J.String s; J.Int tile ] -> (
      match as_index s with
      | Ok index -> Ok { Cogent.Mapping.index; tile }
      | Error e -> Error e)
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

let grid_of_json j =
  let* s = J.as_string j in
  if String.for_all Index.is_valid s then
    Ok (List.init (String.length s) (String.get s))
  else Error (Printf.sprintf "bad grid %S" s)

(* Nine mappings per row: matching the six decoded parts at once
   allocates no closure per part, as a chain of binds would. *)
let mapping_of_json j =
  let part name = Result.bind (J.field name j) bindings_of_json in
  match
    ( part "tbx",
      part "regx",
      part "tby",
      part "regy",
      part "tbk",
      Result.bind (J.field "grid" j) grid_of_json )
  with
  | Ok tbx, Ok regx, Ok tby, Ok regy, Ok tbk, Ok grid ->
      Ok { Cogent.Mapping.tbx; regx; tby; regy; tbk; grid }
  | (Error e, _, _, _, _, _)
  | (_, Error e, _, _, _, _)
  | (_, _, Error e, _, _, _)
  | (_, _, _, Error e, _, _)
  | (_, _, _, _, Error e, _)
  | (_, _, _, _, _, Error e) ->
      Error e

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

(* What the rows of one load share: the classified contraction of each
   distinct ["expr"] (parsed and classified once), and one copy of each
   distinct mapping (a store of 2048 rows holds ~18.4k mappings, ~2.3k of
   them distinct).  Every check still runs per row. *)
module Mappings = Hashtbl.Make (struct
  type t = Cogent.Mapping.t

  let equal = ( = )

  (* The default hash stops after 10 meaningful words, too few to tell
     apart mappings that differ past their first bindings. *)
  let hash = Hashtbl.hash_param 50 200
end)

type memo = {
  infos : (string, (Classify.info, string) result) Hashtbl.t;
  mappings : Cogent.Mapping.t Mappings.t;
}

let memo () = { infos = Hashtbl.create 16; mappings = Mappings.create 16 }

let shared_mapping memo j =
  let* m = mapping_of_json j in
  match Mappings.find_opt memo.mappings m with
  | Some m -> Ok m
  | None ->
      Mappings.add memo.mappings m m;
      Ok m

let decode_entry memo j =
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
  let* sizes =
    match Sizes.of_list sizes with
    | s -> Ok s
    | exception Invalid_argument m -> Error m
  in
  let* info =
    match Hashtbl.find_opt memo.infos expr with
    | Some info -> info
    | None ->
        let info = Problem.analyse expr in
        Hashtbl.add memo.infos expr info;
        info
  in
  let* problem = Problem.of_info info sizes in
  let* arch_s = Result.bind (J.field "arch" j) J.as_string in
  let* arch =
    match Arch.by_name arch_s with
    | Some a -> Ok a
    | None -> Error (Printf.sprintf "unknown device %S" arch_s)
  in
  let* prec_s = Result.bind (J.field "precision" j) J.as_string in
  let* precision = Precision.of_string prec_s in
  let* mapping = Result.bind (J.field "mapping" j) (shared_mapping memo) in
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
            let* m = shared_mapping memo m in
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

let entry_of_json j = decode_entry (memo ()) j

(* ---- store I/O ---- *)

type origin = (string, Cogent.Driver.t * Tc_obs.Jsonl.span) Hashtbl.t

(* A row missing a field added since it was written decoded leniently;
   only an encode gives it that field. *)
let current_fields = [ "kernel_schema"; "bound_aborted" ]

let row_of_json memo j =
  let* k = Result.bind (J.field "key" j) J.as_string in
  let* e = J.field "entry" j in
  let* entry = decode_entry memo e in
  Ok (k, entry, List.for_all (fun f -> J.member f e <> None) current_fields)

let add_counter name n =
  Tc_obs.Metrics.incr ~by:n
    (Tc_obs.Metrics.counter ("cogent.serve.planstore." ^ name))

let read ~dir =
  Tc_obs.Trace.with_span "planstore.load" @@ fun () ->
  let* rows =
    Tc_obs.Jsonl.load ~kind:"plan store" ~row:"plan-store row"
      ~metrics:"cogent.serve.planstore" ~schema (file ~dir)
      (row_of_json (memo ()))
  in
  (* A duplicated key keeps its first row, as [Cache.install] does. *)
  let origin = Hashtbl.create (List.length rows) in
  List.iter
    (fun ((k, r, current), span) ->
      if current && not (Hashtbl.mem origin k) then
        Hashtbl.add origin k (r, span))
    rows;
  Tc_obs.Trace.add_args
    [
      ("rows", Tc_obs.Trace.Int (List.length rows));
      ( "bytes",
        Tc_obs.Trace.Int
          (List.fold_left
             (fun b (_, sp) -> b + sp.Tc_obs.Jsonl.length + 1)
             0 rows) );
    ];
  Ok (List.map (fun ((k, r, _), _) -> (k, r)) rows, origin)

let load ~dir = Result.map fst (read ~dir)

let save ?(origin = Hashtbl.create 0) ~dir rows =
  Tc_obs.Trace.with_span "planstore.save" @@ fun () ->
  (* Copy a row only when the cache still holds the very entry decoded
     from it: a loaded entry is never replaced, so its bytes still
     describe it. *)
  let copy (k, r) =
    match Hashtbl.find_opt origin k with
    | Some (loaded, span) when loaded == r -> Some span
    | _ -> None
  in
  let w =
    Tc_obs.Jsonl.save ~schema ~copy (file ~dir)
      (fun (k, r) -> J.Obj [ ("key", J.String k); ("entry", entry_to_json r) ])
      rows
  in
  let encoded = w.Tc_obs.Jsonl.rows - w.copied in
  add_counter "rows_copied" w.copied;
  add_counter "rows_encoded" encoded;
  Tc_obs.Trace.add_args
    Tc_obs.Trace.
      [
        ("rows", Int w.rows);
        ("bytes", Int w.bytes);
        ("copied", Int w.copied);
        ("encoded", Int encoded);
      ]
