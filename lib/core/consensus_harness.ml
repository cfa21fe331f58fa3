open Cfc_runtime

type cf_result = { max : Measures.sample; per_process : Measures.sample array }

let instantiate (module A : Cfc_consensus.Consensus_intf.ALG) ~n ~inputs mem =
  if Array.length inputs <> n then
    invalid_arg "Consensus_harness: inputs length";
  let module M = (val mem : Cfc_base.Mem_intf.MEM) in
  let module C = A.Make (M) in
  let inst = C.create ~n in
  fun me () ->
    Proc.region Event.Trying;
    let d = C.propose inst ~me ~value:inputs.(me) in
    Proc.decide d

let system alg ~n ~inputs () =
  let memory = Memory.create () in
  let spawn = instantiate alg ~n ~inputs (Sim_mem.mem memory) in
  (memory, Array.init n spawn)

let run ?max_steps ?crash_at ~pick alg ~n ~inputs =
  let memory, procs = system alg ~n ~inputs () in
  Runner.run ?max_steps ?crash_at ~memory ~pick procs

let check (out : Runner.outcome) ~n ~inputs =
  match Spec.agreement out.Runner.trace ~nprocs:n ~inputs with
  | Some _ as v -> v
  | None ->
    if not out.Runner.completed then None
    else begin
      let decided = Measures.decisions out.Runner.trace ~nprocs:n in
      let undecided =
        List.filter
          (fun pid ->
            Scheduler.status out.Runner.scheduler pid = Scheduler.Halted
            && not (List.mem_assoc pid decided))
          (List.init n Fun.id)
      in
      match undecided with
      | [] -> None
      | pids ->
        Some
          { Spec.at = Trace.length out.Runner.trace;
            pids;
            what = "halted without deciding" }
    end

let contention_free (module A : Cfc_consensus.Consensus_intf.ALG) ~n ~inputs =
  let spawn =
    instantiate (module A) ~n ~inputs (Sim_mem.mem (Memory.create ()))
  in
  let per_process =
    Solo.each ~nprocs:n ~spawn (List.init n Fun.id) (fun online ~pid ->
        (match Measures.Online.decision online ~pid with
        | Some v when v = inputs.(pid) -> ()
        | Some v ->
          invalid_arg
            (Printf.sprintf "%s: solo process decided %d, input was %d" A.name
               v inputs.(pid))
        | None -> invalid_arg (A.name ^ ": solo process undecided"));
        Measures.Online.process_total online ~pid)
  in
  { max = Array.fold_left Measures.max_sample Measures.zero per_process;
    per_process }
