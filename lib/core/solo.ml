open Cfc_runtime

(* Wake the run's pids one after the other on a fresh wheel, each once the
   previous one has finished, and stop at the first error.  A lone woken
   process leaves the heap empty, so each pid's whole run is one
   run-ahead step. *)
let on_wheel ~nprocs ~spawn sink run =
  let wheel = Wheel.create ~sink ~nprocs ~spawn () in
  let rec go = function
    | [] -> ()
    | pid :: rest ->
      Wheel.wake wheel pid;
      ignore (Wheel.run wheel : Wheel.stopped);
      if Option.is_none (Wheel.first_error wheel) then go rest
  in
  go run;
  wheel

(* One run into the shared fold, leaving every register it touched at its
   initial value.  On an error the run is repeated from those fresh
   registers into a trace: it is deterministic, so it reaches the same
   error, and the report carries the failing process's last events. *)
let drive ~nprocs ~spawn online sink run =
  Measures.Online.reset online;
  let wheel = on_wheel ~nprocs ~spawn sink run in
  List.iter Register.reset (Measures.Online.touched online);
  match Wheel.first_error wheel with
  | None -> ()
  | Some (pid, error) ->
    let trace = Trace.create () in
    ignore (on_wheel ~nprocs ~spawn (Scheduler.trace_sink trace) run : Wheel.t);
    raise
      (Runner.Process_error
         { pid; steps = Wheel.steps_taken wheel pid; error;
           recent = Trace.last ~pid 5 trace })

let each ~nprocs ~spawn pids read =
  let online = Measures.Online.create ~nprocs in
  let sink = Measures.Online.feed online in
  List.map
    (fun me ->
      drive ~nprocs ~spawn online sink [ me ];
      read online ~pid:me)
    pids
  |> Array.of_list

let sequential ~nprocs ~spawn read =
  let online = Measures.Online.create ~nprocs in
  drive ~nprocs ~spawn online (Measures.Online.feed online)
    (List.init nprocs Fun.id);
  read online
