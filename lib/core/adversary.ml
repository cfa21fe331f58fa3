open Cfc_runtime

exception Stalled of {
  alg : string;
  stopped : Runner.stopped;
  acquisitions : int;
  max_steps : int;
}

let () =
  Printexc.register_printer (function
    | Stalled { alg; stopped; acquisitions; max_steps } ->
      Some
        (Format.asprintf
           "Adversary.Stalled: %s did not reach quiescence: %a (budget %d \
            scheduler steps) after %d acquisitions — raise ~max_steps or \
            shrink the workload"
           alg Runner.pp_stopped stopped max_steps acquisitions)
    | _ -> None)

type instantiate = Cfc_base.Mem_intf.mem -> int -> unit -> unit

type run = {
  outcome : Runner.outcome;
  online : Measures.Online.t;
  violation : Spec.violation option;
  max_steps : int;
}

let arena ~nprocs instantiate =
  let memory = Memory.create () in
  let spawn = instantiate (Sim_mem.mem memory) in
  (memory, Array.init nprocs spawn)

let run ?(max_steps = 1_000_000) ?crash_at ?faults ?(monitors = []) ~pick
    ~nprocs instantiate =
  let memory, procs = arena ~nprocs instantiate in
  let outcome = Runner.run ~max_steps ?crash_at ?faults ~memory ~pick procs in
  let online = Measures.Online.create ~nprocs in
  Trace.iter
    (fun { Event.pid; body; _ } ->
      Measures.Online.feed online ~pid body;
      List.iter (fun m -> Spec.Monitor.feed m ~pid body) monitors)
    outcome.Runner.trace;
  { outcome; online; max_steps;
    violation = List.find_map Spec.Monitor.result monitors }

let outcome r =
  Option.iter raise (Runner.error r.outcome);
  r.outcome

let tail ~alg ~max_steps ~acquisitions ~error ~violation stopped =
  Option.iter raise error;
  Option.iter
    (fun (where, v) ->
      invalid_arg (Format.asprintf "%s: %s%a" alg where Spec.pp_violation v))
    violation;
  if stopped <> Runner.Quiescent then
    raise (Stalled { alg; stopped; acquisitions = acquisitions (); max_steps })

let check ~alg r =
  tail ~alg ~max_steps:r.max_steps ~error:(Runner.error r.outcome)
    ~acquisitions:(fun () ->
      List.length (Measures.Online.wc_entries r.online)
      + List.length (Measures.Online.decisions r.online))
    ~violation:(Option.map (fun v -> ("", v)) r.violation)
    r.outcome.Runner.stopped;
  r

let family ?max_steps ~seeds ~nprocs instantiate f =
  let each pick = f (run ?max_steps ~pick ~nprocs instantiate) in
  let first = each (Schedule.round_robin ()) in
  first :: List.map (fun seed -> each (Schedule.random ~seed)) seeds

let worst_case ~alg ?max_steps ~seeds ~nprocs instantiate read =
  List.fold_left Measures.max_sample Measures.zero
    (family ?max_steps ~seeds ~nprocs instantiate (fun r ->
         read (check ~alg r).online))
