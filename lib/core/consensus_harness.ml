open Cfc_runtime

type cf_result = { max : Measures.sample; per_process : Measures.sample array }

let instantiate (module A : Cfc_consensus.Consensus_intf.ALG) ~n ~inputs =
  if Array.length inputs <> n then
    invalid_arg "Consensus_harness: inputs length";
  let memory = Memory.create () in
  let module M = (val Sim_mem.mem memory) in
  let module C = A.Make (M) in
  let inst = C.create ~n in
  let proc me () =
    Proc.region Event.Trying;
    let d = C.propose inst ~me ~value:inputs.(me) in
    Proc.decide d
  in
  (memory, proc)

let run ?max_steps ?crash_at ~pick (module A : Cfc_consensus.Consensus_intf.ALG)
    ~n ~inputs =
  let memory, proc = instantiate (module A) ~n ~inputs in
  Runner.run ?max_steps ?crash_at ~memory ~pick
    (Array.init n (fun me -> proc me))

let check (out : Runner.outcome) ~n ~inputs =
  let decisions = Measures.decisions out.Runner.trace ~nprocs:n in
  let invalid =
    List.filter
      (fun (_, v) -> not (Array.exists (Int.equal v) inputs))
      decisions
  in
  match invalid with
  | (pid, v) :: _ ->
    Some
      { Spec.at = Trace.length out.Runner.trace;
        pids = [ pid ];
        what = Printf.sprintf "decided %d, not any process's input" v }
  | [] -> (
    match decisions with
    | [] -> None
    | (_, first) :: rest -> (
      match List.filter (fun (_, v) -> v <> first) rest with
      | (pid, v) :: _ ->
        Some
          { Spec.at = Trace.length out.Runner.trace;
            pids = [ pid ];
            what = Printf.sprintf "disagreement: %d vs %d" v first }
      | [] ->
        if not out.Runner.completed then None
        else begin
          let undecided =
            List.filter
              (fun pid ->
                Scheduler.status out.Runner.scheduler pid = Scheduler.Halted
                && not (List.mem_assoc pid decisions))
              (List.init n Fun.id)
          in
          match undecided with
          | [] -> None
          | pids ->
            Some
              { Spec.at = Trace.length out.Runner.trace;
                pids;
                what = "halted without deciding" }
        end))

let contention_free (module A : Cfc_consensus.Consensus_intf.ALG) ~n ~inputs =
  let per_process =
    Array.init n (fun me ->
        let out = run ~pick:(Schedule.solo me) (module A) ~n ~inputs in
        (match
           List.assoc_opt me (Measures.decisions out.Runner.trace ~nprocs:n)
         with
        | Some v when v = inputs.(me) -> ()
        | Some v ->
          invalid_arg
            (Printf.sprintf "%s: solo process decided %d, input was %d" A.name
               v inputs.(me))
        | None -> invalid_arg (A.name ^ ": solo process undecided"));
        Measures.Online.process_total
          (Measures.Online.of_trace ~nprocs:n out.Runner.trace)
          ~pid:me)
  in
  { max = Array.fold_left Measures.max_sample Measures.zero per_process;
    per_process }

let system alg ~n ~inputs () =
  let (module A : Cfc_consensus.Consensus_intf.ALG) = alg in
  let memory, proc = instantiate (module A) ~n ~inputs in
  (memory, Array.init n (fun me -> proc me))
