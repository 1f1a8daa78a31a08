
type params = {
  population : int;
  generations : int;
  tournament : int;
  mutation_rate : float;
  elite : int;
  seed : int;
}

let default_params =
  {
    population = 100;
    generations = 20;
    tournament = 3;
    mutation_rate = 0.2;
    elite = 2;
    seed = 42;
  }

type trace_point = {
  evaluations : int;
  best_gflops : float;
  current_gflops : float;
}

type result = {
  best : Cogent.Mapping.t;
  best_gflops : float;
  trace : trace_point list;
  evaluations : int;
  tuning_time_s : float;
}

let tc_quality_factor = 0.9

(* Each candidate is compiled (nvcc) and benchmarked with 3 repetitions;
   this drives the simulated total tuning time.  Pathological candidates
   are cut off by the harness's per-run timeout. *)
let compile_time_s = 4.0
let bench_repetitions = 3.0
let run_timeout_s = 1.0

let fitness arch prec problem mapping =
  match Cogent.Plan.make ~problem ~mapping ~arch ~precision:prec with
  | Error _ -> 0.0
  | Ok plan ->
      let r = Tc_sim.Simkernel.run plan in
      if Float.is_finite r.Tc_sim.Simkernel.gflops then
        tc_quality_factor *. r.Tc_sim.Simkernel.gflops
      else 0.0

let runtime_s arch prec problem mapping =
  match Cogent.Plan.make ~problem ~mapping ~arch ~precision:prec with
  | Error _ -> 0.0
  | Ok plan ->
      let t = (Tc_sim.Simkernel.run plan).Tc_sim.Simkernel.time_s in
      if Float.is_finite t then t else 0.0

module MMap = Map.Make (Cogent.Mapping)

let tune ?(params = default_params) ?eval arch prec problem =
  let eval =
    match eval with
    | Some f -> f
    | None ->
        fun mapping ->
          ( fitness arch prec problem mapping,
            runtime_s arch prec problem mapping )
  in
  let st = Random.State.make [| params.seed |] in
  let evaluations = ref 0 in
  let tuning_time = ref 0.0 in
  let best = ref None in
  let trace = ref [] in
  let memo = ref MMap.empty in
  (* Evaluate one batch of genomes (an initial population or the children
     of one generation).  Decoding happens sequentially; the simulator
     then runs once per distinct mapping not seen earlier in the run —
     those calls are pure, so they fan out on the domain pool — and the
     bookkeeping (counters, best, trace) commits in index order, making
     the whole record independent of the job count.  Memo hits and
     undecodable genomes still get a trace point, but only fresh
     simulator calls advance [evaluations] and the simulated clock. *)
  let evaluate_batch genomes =
    let decoded = Array.map (Space.decode problem) genomes in
    let fresh =
      let seen = ref MMap.empty in
      Array.to_list decoded
      |> List.filter_map (function
           | None -> None
           | Some m ->
               if MMap.mem m !memo || MMap.mem m !seen then None
               else (
                 seen := MMap.add m () !seen;
                 Some m))
    in
    let results = Tc_par.Pool.map eval fresh in
    let batch =
      List.fold_left2
        (fun acc m r -> MMap.add m r acc)
        MMap.empty fresh results
    in
    let fit = Array.make (Array.length genomes) 0.0 in
    Array.iteri
      (fun i d ->
        let g =
          match d with
          | None -> 0.0
          | Some mapping -> (
              match MMap.find_opt mapping !memo with
              | Some (g, _) -> g
              | None ->
                  let (g, t) as r = MMap.find mapping batch in
                  memo := MMap.add mapping r !memo;
                  incr evaluations;
                  tuning_time :=
                    !tuning_time +. compile_time_s
                    +. bench_repetitions *. Float.min run_timeout_s t;
                  (match !best with
                  | Some (_, bg) when bg >= g -> ()
                  | _ -> best := Some (mapping, g));
                  g)
        in
        let best_gflops = match !best with Some (_, g) -> g | None -> 0.0 in
        trace :=
          { evaluations = !evaluations; best_gflops; current_gflops = g }
          :: !trace;
        fit.(i) <- g)
      decoded;
    fit
  in
  let population =
    let genomes =
      Array.init params.population (fun _ -> Space.random st problem)
    in
    let fit = evaluate_batch genomes in
    Array.mapi (fun i g -> (g, fit.(i))) genomes
  in
  let by_fitness (_, a) (_, b) = Float.compare b a in
  let tournament_pick pop =
    let best = ref pop.(Random.State.int st (Array.length pop)) in
    for _ = 2 to params.tournament do
      let c = pop.(Random.State.int st (Array.length pop)) in
      if snd c > snd !best then best := c
    done;
    fst !best
  in
  let current = ref population in
  for _gen = 2 to params.generations do
    let pop = !current in
    Array.sort by_fitness pop;
    (* Breed every child first — the RNG stream stays sequential and
       identical to the pre-parallel tuner — then evaluate the batch. *)
    let children =
      Array.init
        (params.population - params.elite)
        (fun _ ->
          let a = tournament_pick pop and b = tournament_pick pop in
          let child = Space.crossover st a b in
          if Random.State.float st 1.0 < params.mutation_rate then
            Space.mutate st problem child
          else child)
    in
    let fit = evaluate_batch children in
    let next =
      Array.init params.population (fun k ->
          if k < params.elite then pop.(k)
          else (children.(k - params.elite), fit.(k - params.elite)))
    in
    current := next
  done;
  match !best with
  | None -> invalid_arg "Genetic.tune: no feasible configuration evaluated"
  | Some (mapping, gflops) ->
      {
        best = mapping;
        best_gflops = gflops;
        trace = List.rev !trace;
        evaluations = !evaluations;
        tuning_time_s = !tuning_time;
      }
