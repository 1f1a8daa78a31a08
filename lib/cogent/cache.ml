open Tc_gpu
open Tc_expr

type t = {
  lock : Mutex.t;  (* guards [table] *)
  table : (string, Driver.t) Hashtbl.t;
}

let create () = { lock = Mutex.create (); table = Hashtbl.create 32 }

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

let find_or_generate_ctx t ctx problem =
  let k = key ctx problem in
  match locked t (fun () -> Hashtbl.find_opt t.table k) with
  | Some r ->
      Tc_obs.Metrics.incr (hit_counter ());
      Tc_obs.Trace.instant "cache.hit" ~args:[ ("key", Tc_obs.Trace.String k) ];
      Ok r
  | None ->
      Tc_obs.Metrics.incr (miss_counter ());
      Tc_obs.Trace.instant "cache.miss"
        ~args:[ ("key", Tc_obs.Trace.String k) ];
      (* Generation runs outside the lock: it is the expensive part and may
         itself fan out on the pool.  Two domains racing on one key both
         search; the search is deterministic, so the first insert wins and
         the other caller returns its own identical plan.  Errors (and
         exceptions) insert nothing, so a later call retries. *)
      let r =
        Tc_obs.Trace.with_span "cache.generate"
          ~args:[ ("key", Tc_obs.Trace.String k) ]
          (fun () -> Driver.run ctx problem)
      in
      Result.iter
        (fun plan ->
          locked t (fun () ->
              if not (Hashtbl.mem t.table k) then Hashtbl.add t.table k plan))
        r;
      r
