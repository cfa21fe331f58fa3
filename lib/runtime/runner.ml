type stopped =
  | Quiescent
  | Out_of_steps
  | Picker_done

type outcome = {
  memory : Memory.t;
  trace : Trace.t;
  scheduler : Scheduler.t;
  stopped : stopped;
  total_steps : int;
}

exception Process_error of {
  pid : int;
  steps : int;
  error : exn;
  recent : Event.t list;
}

let () =
  Printexc.register_printer (function
    | Process_error { pid; steps; error; recent } ->
      Some
        (Format.asprintf
           "Runner.Process_error: p%d errored after %d steps: %s@\n\
            last events of p%d:@\n%a"
           pid steps (Printexc.to_string error) pid
           (Format.pp_print_list ~pp_sep:Format.pp_print_newline Event.pp)
           recent)
    | _ -> None)

let first_error sched =
  let rec find pid =
    if pid >= Scheduler.nprocs sched then None
    else
      match Scheduler.status sched pid with
      | Scheduler.Errored e -> Some (pid, e)
      | Scheduler.Runnable | Scheduler.Halted | Scheduler.Crashed ->
        find (pid + 1)
  in
  find 0

let run ?(max_steps = 1_000_000) ?(crash_at = []) ?(faults = []) ~memory
    ~pick procs =
  let steps =
    Fault.timeline ~nprocs:(Array.length procs)
      (Fault.of_crash_at crash_at @ faults)
  in
  let trace = Trace.create () in
  let sched = Scheduler.create ~memory ~trace procs in
  let stopped =
    Fault.run steps ~crash:(Scheduler.crash sched)
      ~recover:(Scheduler.recover sched) (fun taken ->
        if Scheduler.all_quiescent sched then Fault.Idle Quiescent
        else if taken >= max_steps then Fault.Stop Out_of_steps
        else
          match pick sched with
          | None -> Fault.Idle Picker_done
          | Some pid ->
            ignore (Scheduler.step sched pid : Scheduler.step_result);
            Fault.Ran)
  in
  { memory; trace; scheduler = sched; stopped;
    total_steps = Scheduler.total_steps sched }

let error outcome =
  Option.map
    (fun (pid, error) ->
      Process_error
        { pid;
          steps = Scheduler.steps_taken outcome.scheduler pid;
          error;
          recent = Trace.last ~pid 5 outcome.trace })
    (first_error outcome.scheduler)

(* ------------------------------------------------------------------ *)
(* Stall / error diagnosis                                            *)

type proc_report = {
  d_pid : int;
  d_status : Scheduler.status;
  d_region : Event.region;
  d_steps : int;
  d_recent : Event.t list;
}

let diagnose ?(recent = 5) out =
  let sched = out.scheduler in
  List.init (Scheduler.nprocs sched) (fun pid ->
      { d_pid = pid;
        d_status = Scheduler.status sched pid;
        d_region = Scheduler.region sched pid;
        d_steps = Scheduler.steps_taken sched pid;
        d_recent = Trace.last ~pid recent out.trace })

let pp_stopped ppf = function
  | Quiescent -> Format.pp_print_string ppf "quiescent"
  | Out_of_steps -> Format.pp_print_string ppf "step budget exhausted"
  | Picker_done -> Format.pp_print_string ppf "picker gave up"

let pp_status ppf = function
  | Scheduler.Runnable -> Format.pp_print_string ppf "runnable"
  | Scheduler.Halted -> Format.pp_print_string ppf "halted"
  | Scheduler.Crashed -> Format.pp_print_string ppf "crashed"
  | Scheduler.Errored e ->
    Format.fprintf ppf "errored (%s)" (Printexc.to_string e)

let pp_diagnosis ppf out =
  Format.fprintf ppf "run stopped: %a; %d total steps@\n" pp_stopped
    out.stopped out.total_steps;
  List.iter
    (fun d ->
      Format.fprintf ppf "p%d: %a, region %a, %d steps@\n" d.d_pid pp_status
        d.d_status Event.pp_region d.d_region d.d_steps;
      List.iter (fun e -> Format.fprintf ppf "    %a@\n" Event.pp e) d.d_recent)
    (diagnose out)
