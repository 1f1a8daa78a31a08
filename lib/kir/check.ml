open Tc_gpu
open Ir

let scalar_bytes k = Precision.bytes k.spec.precision

let sum_elems arrays = List.fold_left (fun acc a -> acc + a.elems) 0 arrays

let smem_bytes k = sum_elems k.smem * scalar_bytes k

let reg_estimate k =
  let live = k.acc.elems + sum_elems k.regs in
  (* sub-word scalars (fp16) still occupy whole registers *)
  (max 1 (scalar_bytes k / 4) * live)
  + 32
  + Schema.extra_regs k.spec.schema

let occupancy_request k =
  {
    Occupancy.threads_per_block = threads k.spec;
    smem_per_block = smem_bytes k;
    regs_per_thread = min 255 (reg_estimate k);
  }

let cross_validate ~expected_smem ~expected_regs k =
  let got_smem = smem_bytes k and got_regs = reg_estimate k in
  if got_smem <> expected_smem then
    invalid_arg
      (Printf.sprintf
         "Tc_kir.Check.cross_validate: kernel %s declares %d B of shared \
          memory, plan predicts %d B"
         k.spec.name got_smem expected_smem);
  if got_regs <> expected_regs then
    invalid_arg
      (Printf.sprintf
         "Tc_kir.Check.cross_validate: kernel %s uses an estimated %d \
          registers/thread, plan predicts %d"
         k.spec.name got_regs expected_regs)

let n_banks = 32

(* Runs a block schedule at step 0 and raises [Exit] once its first Stage
   phase has executed. *)
let rec run_to_first_stage env body =
  List.iter
    (function
      | Uniform b -> exec env b
      | Phase { kind; body; _ } ->
          exec env body;
          if kind = Stage then raise Exit
      | Fence _ -> ()
      | Scoped b -> run_to_first_stage env b
      | Step_loop b ->
          set_var env step_var 0;
          run_to_first_stage env b
      | If_next_step b ->
          let next = Add (Var step_var, Int_lit 1) in
          if eval_expr env (Lt (next, Var num_steps_var)) <> 0 then
            run_to_first_stage env b)
    body

let staging_conflict_ways k =
  let s = k.spec in
  let tbx = threads_x s in
  let nlanes = min n_banks (threads s) in
  let smem_names = List.map (fun a -> a.a_name) k.smem in
  (* key: (slab, per-lane write count to that slab).  Lanes run the staging
     loops in lockstep, so the j-th write of each lane to one slab is one
     warp transaction. *)
  let groups : (string * int, int list ref) Hashtbl.t = Hashtbl.create 64 in
  for lane = 0 to nlanes - 1 do
    let counters = Hashtbl.create 4 in
    let on_access kind name addr =
      if kind = Write && List.exists (String.equal name) smem_names then begin
        let c = Option.value (Hashtbl.find_opt counters name) ~default:0 in
        Hashtbl.replace counters name (c + 1);
        let cell =
          match Hashtbl.find_opt groups (name, c) with
          | Some r -> r
          | None ->
              let r = ref [] in
              Hashtbl.add groups (name, c) r;
              r
        in
        cell := addr :: !cell
      end
    in
    let builtin = function
      | Thread_x -> lane mod tbx
      | Thread_y -> lane / tbx
      | Block_flat -> 0
    in
    let env = make_env ~builtin ~on_access () in
    List.iter
      (fun (i, e) -> set_var env (Printf.sprintf "N_%c" i) e)
      s.extents;
    exec env k.grid_setup;
    exec env k.block_setup;
    exec env k.step_counts;
    exec env k.thread_init;
    (try run_to_first_stage env k.body with Exit -> ())
  done;
  Hashtbl.fold
    (fun _ addrs worst ->
      let banks = Array.make n_banks [] in
      List.iter
        (fun a ->
          let b = a mod n_banks in
          if not (List.mem a banks.(b)) then banks.(b) <- a :: banks.(b))
        !addrs;
      Array.fold_left (fun w l -> max w (List.length l)) worst banks)
    groups 1
