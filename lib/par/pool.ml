module Metrics = Tc_obs.Metrics
module Trace = Tc_obs.Trace

type t = {
  jobs : int;
  lock : Mutex.t;
  nonempty : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable shut : bool;
  mutable workers : unit Domain.t list;
}

(* ---- pool metrics (registered lazily so the registry only shows pool
   rows once a pool actually ran something) ---- *)

let tasks_counter () = Metrics.counter "par.pool.tasks"
let batches_counter () = Metrics.counter "par.pool.batches"
let waits_counter () = Metrics.counter "par.pool.waits"
let busy_counter () = Metrics.counter "par.pool.busy_s"

let note_busy ran dt =
  Metrics.add (tasks_counter ()) (float_of_int ran);
  Metrics.add (busy_counter ()) dt

(* ---- workers ---- *)

let worker pool () =
  let rec loop () =
    Mutex.lock pool.lock;
    let rec await () =
      if pool.shut then None
      else if Queue.is_empty pool.queue then begin
        Condition.wait pool.nonempty pool.lock;
        await ()
      end
      else Some (Queue.pop pool.queue)
    in
    let task = await () in
    Mutex.unlock pool.lock;
    match task with
    | None -> ()
    | Some run ->
        (* Batch helpers trap item exceptions themselves; this guard only
           keeps a broken helper from killing the worker. *)
        (try run () with _ -> ());
        loop ()
  in
  loop ()

(* ---- default pool ---- *)

let admin = Mutex.create ()
let override = ref None
let the_default : t option ref = ref None

let env_jobs () =
  Option.bind (Sys.getenv_opt "COGENT_JOBS") int_of_string_opt

let default_jobs_unlocked () =
  let j =
    match !override with
    | Some j -> j
    | None -> (
        match env_jobs () with
        | Some j -> j
        | None -> Domain.recommended_domain_count () - 1)
  in
  max 1 j

let create jobs =
  let pool =
    {
      jobs;
      lock = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      shut = false;
      workers = [];
    }
  in
  if jobs > 1 then
    pool.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (worker pool));
  pool

let shutdown pool =
  Mutex.lock pool.lock;
  pool.shut <- true;
  Condition.broadcast pool.nonempty;
  Mutex.unlock pool.lock;
  let workers = pool.workers in
  pool.workers <- [];
  List.iter Domain.join workers

let default_jobs () =
  Mutex.lock admin;
  let j = default_jobs_unlocked () in
  Mutex.unlock admin;
  j

(* The process-global pool, created on first use: every call shares it,
   which keeps the total domain count bounded. *)
let default () =
  Mutex.lock admin;
  let p =
    match !the_default with
    | Some p -> p
    | None ->
        let p = create (default_jobs_unlocked ()) in
        the_default := Some p;
        p
  in
  Mutex.unlock admin;
  p

let set_default_jobs j =
  Mutex.lock admin;
  override := Some (max 1 j);
  let stale =
    match !the_default with
    | Some p when p.jobs <> default_jobs_unlocked () ->
        the_default := None;
        Some p
    | _ -> None
  in
  Mutex.unlock admin;
  (* Joining outside [admin] so a straggler task calling [default ()] can
     never deadlock against us. *)
  Option.iter shutdown stale

(* ---- parallel map ---- *)

let map f xs =
  let pool = default () in
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | xs when pool.jobs <= 1 || pool.shut -> List.map f xs
  | xs ->
      let items = Array.of_list xs in
      let n = Array.length items in
      let results = Array.make n None in
      let failures = Array.make n None in
      let next = Atomic.make 0 in
      let m = Mutex.create () in
      let done_c = Condition.create () in
      let completed = ref 0 in
      (* Every participant — the caller and any worker that picked up a
         helper — claims item indices from the shared cursor until the
         batch is drained.  The caller claiming its own items is what
         makes nested maps deadlock-free: unclaimed work never has to
         wait for a free worker. *)
      let participate () =
        let t0 = Tc_obs.Clock.now () in
        let ran = ref 0 in
        let continue_ = ref true in
        while !continue_ do
          let i = Atomic.fetch_and_add next 1 in
          if i >= n then continue_ := false
          else begin
            (try results.(i) <- Some (f items.(i))
             with e -> failures.(i) <- Some (e, Printexc.get_raw_backtrace ()));
            incr ran
          end
        done;
        (* A participant reports its items complete only after noting its
           busy time, so once [map] returns every item's time is counted. *)
        if !ran > 0 then begin
          note_busy !ran (Tc_obs.Clock.now () -. t0);
          Mutex.lock m;
          completed := !completed + !ran;
          if !completed = n then Condition.broadcast done_c;
          Mutex.unlock m
        end
      in
      (* Full ambient tracing state — the installed context AND the open
         request scope — so spans recorded on worker domains land in the
         submitting domain's sink with the submitting request's id. *)
      let ambient = Trace.capture () in
      let helper () = Trace.with_ambient ambient participate in
      let helpers = min (pool.jobs - 1) (n - 1) in
      Mutex.lock pool.lock;
      if not pool.shut then begin
        for _ = 1 to helpers do
          Queue.push helper pool.queue
        done;
        Condition.broadcast pool.nonempty
      end;
      Mutex.unlock pool.lock;
      Metrics.incr (batches_counter ());
      participate ();
      Mutex.lock m;
      if !completed < n then begin
        Metrics.incr (waits_counter ());
        while !completed < n do
          Condition.wait done_c m
        done
      end;
      Mutex.unlock m;
      (* Deterministic error propagation: the lowest-indexed failure wins,
         regardless of which domain hit it first. *)
      let rec first_failure i =
        if i >= n then None
        else match failures.(i) with Some f -> Some f | None -> first_failure (i + 1)
      in
      (match first_failure 0 with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ());
      Array.to_list
        (Array.map
           (function Some v -> v | None -> assert false (* all completed *))
           results)

let map_fold ~map:f ~fold ~init xs = List.fold_left fold init (map f xs)

let fold_best ~better f xs =
  map_fold ~map:f ~init:None
    ~fold:(fun best candidate ->
      match best with
      | None -> Some candidate
      | Some incumbent ->
          if better candidate incumbent then Some candidate else best)
    xs
