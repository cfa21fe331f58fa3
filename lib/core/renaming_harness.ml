open Cfc_runtime

type cf_result = {
  max : Measures.sample;
  per_process : Measures.sample array;
  names : int array;
}

let instantiate (module A : Cfc_renaming.Renaming_intf.ALG) ~n mem =
  let module M = (val mem : Cfc_base.Mem_intf.MEM) in
  let module R = A.Make (M) in
  let inst = R.create ~n in
  fun me () ->
    Proc.region Event.Trying;
    Proc.decide (R.rename inst ~me)

let system alg ~n () = Adversary.arena ~nprocs:n (instantiate alg ~n)

(* Restrict a picker to a participant set (non-participants never start,
   matching "k of n processes participate").  The run ends when no
   participant can take steps — without this check the underlying picker
   would offer the permanently-idle non-participants forever. *)
let restrict participants pick sched =
  let rec next () =
    if
      not
        (List.exists
           (fun pid -> Scheduler.status sched pid = Scheduler.Runnable)
           participants)
    then None
    else
      match pick sched with
      | None -> None
      | Some pid -> if List.mem pid participants then Some pid else next ()
  in
  next

let run ?max_steps ?crash_at ?participants ~pick alg ~n =
  let pick =
    match participants with
    | None -> pick
    | Some ps ->
      if ps = [] then invalid_arg "Renaming_harness.run: no participants";
      fun sched -> (restrict ps pick sched) ()
  in
  Adversary.outcome
    (Adversary.run ?max_steps ?crash_at ~pick ~nprocs:n (instantiate alg ~n))

let contention_free (module A : Cfc_renaming.Renaming_intf.ALG) ~n =
  let spawn = instantiate (module A) ~n (Sim_mem.mem (Memory.create ())) in
  let runs =
    Solo.each ~nprocs:n ~spawn (List.init n Fun.id) (fun online ~pid ->
        match Measures.Online.decision online ~pid with
        | Some name -> (Measures.Online.process_total online ~pid, name)
        | None -> invalid_arg (A.name ^ ": solo process got no name"))
  in
  let per_process = Array.map fst runs in
  {
    max = Array.fold_left Measures.max_sample Measures.zero per_process;
    per_process;
    names = Array.map snd runs;
  }
