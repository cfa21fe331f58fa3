open Cfc_runtime

type cf_result = {
  max : Measures.sample;
  per_process : Measures.sample array;
  names : int array;
}

let instantiate (module A : Cfc_renaming.Renaming_intf.ALG) ~n =
  let memory = Memory.create () in
  let module M = (val Sim_mem.mem memory) in
  let module R = A.Make (M) in
  let inst = R.create ~n in
  let proc me () =
    Proc.region Event.Trying;
    Proc.decide (R.rename inst ~me)
  in
  (memory, proc)

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

let run ?max_steps ?crash_at ?participants ~pick
    (module A : Cfc_renaming.Renaming_intf.ALG) ~n =
  let memory, proc = instantiate (module A) ~n in
  let procs = Array.init n (fun me -> proc me) in
  let pick =
    match participants with
    | None -> pick
    | Some ps ->
      if ps = [] then invalid_arg "Renaming_harness.run: no participants";
      fun sched -> (restrict ps pick sched) ()
  in
  Runner.run ?max_steps ?crash_at ~memory ~pick procs

let check (out : Runner.outcome) ~n ~k ~bound =
  let decisions = Measures.decisions out.Runner.trace ~nprocs:n in
  let limit = bound ~n ~k in
  let out_of_range =
    List.filter (fun (_, v) -> v < 1 || v > limit) decisions
  in
  match out_of_range with
  | (pid, v) :: _ ->
    Some
      { Spec.at = Trace.length out.Runner.trace;
        pids = [ pid ];
        what = Printf.sprintf "name %d outside 1..%d (k=%d)" v limit k }
  | [] -> (
    let sorted = List.sort (fun (_, a) (_, b) -> compare a b) decisions in
    let rec dup = function
      | (p1, v1) :: (p2, v2) :: _ when v1 = v2 ->
        Some
          { Spec.at = Trace.length out.Runner.trace;
            pids = [ p1; p2 ];
            what = Printf.sprintf "duplicate name %d" v1 }
      | _ :: rest -> dup rest
      | [] -> None
    in
    dup sorted)

let contention_free (module A : Cfc_renaming.Renaming_intf.ALG) ~n =
  let samples_names =
    Array.init n (fun me ->
        let out =
          run ~participants:[ me ] ~pick:(Schedule.solo me) (module A) ~n
        in
        let name =
          match
            List.assoc_opt me (Measures.decisions out.Runner.trace ~nprocs:n)
          with
          | Some v -> v
          | None -> invalid_arg (A.name ^ ": solo process got no name")
        in
        ( Measures.Online.process_total
            (Measures.Online.of_trace ~nprocs:n out.Runner.trace)
            ~pid:me,
          name ))
  in
  let per_process = Array.map fst samples_names in
  {
    max = Array.fold_left Measures.max_sample Measures.zero per_process;
    per_process;
    names = Array.map snd samples_names;
  }

let system alg ~n () =
  let (module A : Cfc_renaming.Renaming_intf.ALG) = alg in
  let memory, proc = instantiate (module A) ~n in
  (memory, Array.init n (fun me -> proc me))
