open Tc_gpu
open Tc_expr

(* [In_flight] marks a key whose generation is running on some domain;
   racing callers wait on [cond] instead of duplicating the search. *)
type slot = Ready of Driver.t | In_flight

type t = {
  lock : Mutex.t;  (* guards [table], [ready], [hits] and [misses] *)
  cond : Condition.t;  (* signalled when an in-flight slot resolves *)
  table : (string, slot) Hashtbl.t;
  mutable ready : int;  (* [Ready] slots in [table] *)
  mutable hits : int;
  mutable misses : int;
}

let create () =
  {
    lock = Mutex.create ();
    cond = Condition.create ();
    table = Hashtbl.create 32;
    ready = 0;
    hits = 0;
    misses = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Every write to [table] goes through [set] (under the lock), so [ready]
   stays the number of [Ready] slots and {!stats} never walks the table. *)
let ready_in = function Some (Ready _) -> 1 | Some In_flight | None -> 0

let set t k slot =
  t.ready <- t.ready - ready_in (Hashtbl.find_opt t.table k) + ready_in slot;
  match slot with
  | Some s -> Hashtbl.replace t.table k s
  | None -> Hashtbl.remove t.table k

(* Nearest power of two; extents above 2^61, the largest power of two an
   [int] holds, round to 2^61 (doubling past it would overflow). *)
let round_pow2 n =
  let rec go p = if p >= n || p > max_int / 2 then p else go (2 * p) in
  let hi = go 1 in
  let lo = max 1 (hi / 2) in
  if n - lo <= hi - n then lo else hi

(* The key is built in one buffer, digits included: it is formed once per
   served request. *)
let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (Char.code '0' + (n mod 10)))

let add_size_class b problem =
  List.iteri
    (fun k i ->
      if k > 0 then Buffer.add_char b ',';
      Buffer.add_char b i;
      Buffer.add_char b ':';
      add_digits b (round_pow2 (Problem.extent problem i)))
    (Classify.all_indices (Problem.info problem))

let size_class problem =
  let b = Buffer.create 32 in
  add_size_class b problem;
  Buffer.contents b

let key (ctx : Ctx.t) problem =
  let e = (Problem.info problem).Classify.original in
  let b = Buffer.create 96 in
  List.iter (Buffer.add_char b) e.Ast.out.Ast.indices;
  Buffer.add_char b '-';
  List.iter (Buffer.add_char b) e.Ast.lhs.Ast.indices;
  Buffer.add_char b '-';
  List.iter (Buffer.add_char b) e.Ast.rhs.Ast.indices;
  Buffer.add_char b '|';
  Buffer.add_string b ctx.Ctx.arch.Arch.name;
  Buffer.add_char b '|';
  Buffer.add_string b (Precision.to_string ctx.Ctx.precision);
  Buffer.add_char b '|';
  add_size_class b problem;
  (* A forced kernel schema changes what the search returns, so it is
     part of the identity; auto-raced contexts keep the historical key
     (and stay compatible with stores written before schemas existed). *)
  (match ctx.Ctx.schema with
  | None -> ()
  | Some s ->
      Buffer.add_char b '|';
      Buffer.add_string b (Schema.to_string s));
  Buffer.contents b

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
        set t k (Some In_flight);
        t.misses <- t.misses + 1;
        `Generate
  in
  let t0 = Tc_obs.Clock.now () in
  let claimed = locked t claim in
  if !waited then begin
    Tc_obs.Metrics.incr (wait_counter ());
    Tc_obs.Metrics.observe (wait_hist ()) (Tc_obs.Clock.now () -. t0);
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
            set t k (Option.map (fun r -> Ready r) slot);
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
      if not (Hashtbl.mem t.table k) then set t k (Some (Ready r)))

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
  locked t (fun () -> { entries = t.ready; hits = t.hits; misses = t.misses })

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.table;
      t.ready <- 0;
      t.hits <- 0;
      t.misses <- 0)
