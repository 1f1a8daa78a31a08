open Tc_gpu
open Tc_expr

(* [In_flight] marks a key whose generation is running on some domain;
   racing callers wait on [cond] instead of duplicating the search. *)
type slot = Ready of Driver.t | In_flight

type t = {
  lock : Mutex.t;  (* guards [table], [hits] and [misses] *)
  cond : Condition.t;  (* signalled when an in-flight slot resolves *)
  table : (string, slot) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let create () =
  {
    lock = Mutex.create ();
    cond = Condition.create ();
    table = Hashtbl.create 32;
    hits = 0;
    misses = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Nearest power of two; extents above 2^61, the largest power of two an
   [int] holds, round to 2^61 (doubling past it would overflow). *)
let round_pow2 n =
  let rec go p = if p >= n || p > max_int / 2 then p else go (2 * p) in
  let hi = go 1 in
  let lo = max 1 (hi / 2) in
  if n - lo <= hi - n then lo else hi

let size_class problem =
  let info = Problem.info problem in
  String.concat ","
    (List.map
       (fun i ->
         Printf.sprintf "%c:%d" i (round_pow2 (Problem.extent problem i)))
       (Classify.all_indices info))

let key (ctx : Ctx.t) problem =
  Printf.sprintf "%s|%s|%s|%s%s"
    (Ast.tccg_string (Problem.info problem).Classify.original)
    ctx.Ctx.arch.Arch.name
    (Precision.to_string ctx.Ctx.precision)
    (size_class problem)
    (* A forced kernel schema changes what the search returns, so it is
       part of the identity; auto-raced contexts keep the historical key
       (and stay compatible with stores written before schemas existed). *)
    (match ctx.Ctx.schema with
    | None -> ""
    | Some s -> "|" ^ Schema.to_string s)

let hit_counter () = Tc_obs.Metrics.counter "cogent.cache.hits"
let miss_counter () = Tc_obs.Metrics.counter "cogent.cache.misses"
let wait_counter () = Tc_obs.Metrics.counter "cogent.cache.inflight_waits"

(* Wall-clock by design ("wall" in the name keeps it out of the CI
   replay gate's deterministic subset): how long latched callers block
   on another domain's in-flight generation. *)
let wait_hist () = Tc_obs.Metrics.histogram "cogent.cache.wait_wall_seconds"

let record_hit t k =
  locked t (fun () -> t.hits <- t.hits + 1);
  Tc_obs.Metrics.incr (hit_counter ());
  Tc_obs.Trace.instant "cache.hit" ~args:[ ("key", Tc_obs.Trace.String k) ]

let find_or_generate_ctx t ctx problem =
  let k = key ctx problem in
  (* Claim the key under the lock: either we own the generation (we
     installed [In_flight]), someone else's result is ready, or we wait
     for the in-flight owner and re-examine. *)
  let waited = ref false in
  let rec claim () =
    match Hashtbl.find_opt t.table k with
    | Some (Ready r) -> `Hit r
    | Some In_flight ->
        waited := true;
        Condition.wait t.cond t.lock;
        claim ()
    | None ->
        Hashtbl.add t.table k In_flight;
        t.misses <- t.misses + 1;
        `Generate
  in
  let t0 = Sys.time () in
  let claimed = locked t claim in
  if !waited then begin
    Tc_obs.Metrics.incr (wait_counter ());
    Tc_obs.Metrics.observe (wait_hist ()) (Float.max 0.0 (Sys.time () -. t0));
    Tc_obs.Trace.instant "cache.wait"
      ~args:[ ("key", Tc_obs.Trace.String k) ]
  end;
  match claimed with
  | `Hit r ->
      record_hit t k;
      Ok r
  | `Generate -> (
      Tc_obs.Metrics.incr (miss_counter ());
      Tc_obs.Trace.instant "cache.miss"
        ~args:[ ("key", Tc_obs.Trace.String k) ];
      (* Generation runs outside the lock (it is the expensive part and
         may itself fan out on the pool); the [In_flight] slot keeps other
         domains from duplicating it.  On any failure the slot is removed
         so a later call can retry — errors are never cached. *)
      let resolve slot =
        locked t (fun () ->
            (match slot with
            | Some r -> Hashtbl.replace t.table k (Ready r)
            | None -> Hashtbl.remove t.table k);
            Condition.broadcast t.cond)
      in
      match
        Tc_obs.Trace.with_span "cache.generate"
          ~args:[ ("key", Tc_obs.Trace.String k) ]
          (fun () -> Driver.run ctx problem)
      with
      | Ok r ->
          resolve (Some r);
          Ok r
      | Error e ->
          resolve None;
          Error e
      | exception e ->
          resolve None;
          raise e)

let install t k r =
  locked t (fun () ->
      if not (Hashtbl.mem t.table k) then Hashtbl.add t.table k (Ready r))

let entries t =
  locked t (fun () ->
      Hashtbl.fold
        (fun k slot acc ->
          match slot with Ready r -> (k, r) :: acc | In_flight -> acc)
        t.table [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let mem t k =
  locked t (fun () ->
      match Hashtbl.find_opt t.table k with
      | Some (Ready _) -> true
      | Some In_flight | None -> false)

type stats = { entries : int; hits : int; misses : int }

let stats t =
  locked t (fun () ->
      let ready =
        Hashtbl.fold
          (fun _ slot n -> match slot with Ready _ -> n + 1 | In_flight -> n)
          t.table 0
      in
      { entries = ready; hits = t.hits; misses = t.misses })

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.table;
      t.hits <- 0;
      t.misses <- 0)
