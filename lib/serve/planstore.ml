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

(* Matching the six decoded parts at once allocates no closure per
   part, as a chain of binds would. *)
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
    ]

(* The fields [entry_to_json] writes.  Rows of earlier versions may lack
   ["kernel_schema"] or carry ["degraded"] or the search that found the
   plan (["ranked"], ["prune"], ["naive_space"], ["bound_aborted"]),
   which decoding ignores (all but a true ["degraded"]); only a row with
   exactly these fields is current. *)
let fields = [ "expr"; "sizes"; "arch"; "precision"; "kernel_schema"; "mapping" ]

(* [infos] holds the classified contraction of each distinct ["expr"] of
   one load, parsed and classified once.  Every check still runs per
   row. *)
let decode_entry infos j =
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
  let* sizes = Sizes.make sizes in
  let* info =
    match Hashtbl.find_opt infos expr with
    | Some info -> info
    | None ->
        let info = Problem.analyse expr in
        Hashtbl.add infos expr info;
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
  let* mapping = Result.bind (J.field "mapping" j) mapping_of_json in
  (* [Plan.make] recomputes the model cost — deterministic, so the
     reloaded plan is bit-identical to the one that was saved. *)
  let* plan = Cogent.Plan.make ~problem ~mapping ~arch ~precision in
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
        | Some sc -> Cogent.Plan.with_schema sc plan)
  in
  (* Lenient: earlier versions wrote ["degraded"], true when a search
     budget truncated the search.  Such a plan is not what the full search
     picks, so it is refused and its key generated again. *)
  match J.field "degraded" j with
  | Error _ | Ok (J.Bool false) -> Ok (Cogent.Driver.of_plan plan)
  | Ok _ -> Error "plan of a truncated search (\"degraded\")"

(* A row is served under its key, so the key must be the one its plan is
   filed under: {!Cogent.Cache.key} of the decoded problem, device and
   precision.  A forced-schema suffix is the one part of a key the entry
   does not hold; it must name the entry's kernel schema. *)
let check_key k (plan : Cogent.Plan.t) =
  let key schema =
    Cogent.Cache.key
      (Cogent.Ctx.make ~arch:plan.Cogent.Plan.arch
         ~precision:plan.Cogent.Plan.precision ?schema ())
      plan.Cogent.Plan.problem
  in
  let own = key None in
  if String.equal k own || String.equal k (key (Some plan.Cogent.Plan.schema))
  then Ok ()
  else Error (Printf.sprintf "key %S does not match its entry's key %S" k own)

let entry_of_json j = decode_entry (Hashtbl.create 1) j

(* ---- store I/O ---- *)

type origin = (string, Cogent.Driver.t * Tc_obs.Jsonl.span) Hashtbl.t

let row_of_json infos j =
  let* k = Result.bind (J.field "key" j) J.as_string in
  let* e = J.field "entry" j in
  let* entry = decode_entry infos e in
  let* () = check_key k entry.Cogent.Driver.plan in
  let current =
    match e with
    | J.Obj kvs ->
        List.compare_lengths kvs fields = 0
        && List.for_all (fun f -> List.mem_assoc f kvs) fields
    | _ -> false
  in
  Ok (k, entry, current)

let add_counter name n =
  Tc_obs.Metrics.incr ~by:n
    (Tc_obs.Metrics.counter ("cogent.serve.planstore." ^ name))

let read ~dir =
  Tc_obs.Trace.with_span "planstore.load" @@ fun () ->
  let* rows =
    Tc_obs.Jsonl.load ~kind:"plan store" ~row:"plan-store row"
      ~metrics:"cogent.serve.planstore" ~schema (file ~dir)
      (row_of_json (Hashtbl.create 16))
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
