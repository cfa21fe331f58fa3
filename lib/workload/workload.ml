open Cfc_base
open Cfc_runtime
open Cfc_mutex
open Cfc_core

type config = {
  n : int;
  rounds : int;
  mean_think : int;
  cs_len : int;
  seed : int;
}

type result = {
  acquisitions : int;
  entry_steps_mean : float;
  entry_steps_max : int;
  entry_registers_max : int;
  cf_steps : int;
  observed_contention : float;
  total_steps : int;
  remote_max : int;
}

(* Geometric think time (expectation [mean], seeded per process): one
   uniform draw inverted through Ixmath.geometric.  The per-pid state is
   split-seeded through Ixmath.mix_seed — seeding with the raw
   [| seed; pid |] pair correlates adjacent pids; the mixer's full
   avalanche decorrelates them.  Every client rig, simulated and native,
   draws its think times here. *)
let think_stream ~seed ~pid =
  let st = Random.State.make [| Ixmath.mix_seed seed pid |] in
  fun ~mean ->
    if mean = 0 then 0
    else Ixmath.geometric ~u:(Random.State.float st 1.0) ~mean

let wheel_rig ~seed ~pid ~mean =
  let draw = think_stream ~seed ~pid in
  Client.sim ~think:(fun () ->
      let d = draw ~mean in
      if d > 0 then Proc.sleep d)

let drive ?max_turns ?faults ~alg ~rounds ~sink ~nprocs ~spawn ~monitors
    ~acquisitions () =
  let wheel = Wheel.create ~sink ?faults ~nprocs ~spawn () in
  for pid = 0 to nprocs - 1 do
    Wheel.wake wheel pid
  done;
  let max_turns =
    Option.value max_turns ~default:(20_000 * nprocs * max 1 rounds)
  in
  let stopped =
    match Wheel.run ~max_turns wheel with
    | Wheel.Quiescent -> Runner.Quiescent
    | Wheel.Out_of_turns -> Runner.Out_of_steps
  in
  Adversary.tail ~alg ~max_steps:max_turns ~acquisitions
    ~error:
      (Option.map
         (fun (pid, error) ->
           Runner.Process_error
             { pid; steps = Wheel.steps_taken wheel pid; error; recent = [] })
         (Wheel.first_error wheel))
    ~violation:
      (List.find_map
         (fun (where, m) ->
           Option.map (fun v -> (where, v)) (Spec.Monitor.result m))
         monitors)
    stopped;
  wheel

let run_mutex ?(max_steps = 10_000_000) (module A : Mutex_intf.ALG) config =
  let p = Mutex_intf.params config.n in
  if not (A.supports p) then invalid_arg (A.name ^ ": unsupported");
  let instantiate mem =
    let module M = (val mem : Mem_intf.MEM) in
    let client =
      Client.clients ~rounds:config.rounds (module A) p mem
        ~section:(Client.scratch ~name:"wl.scratch" ~cs_len:config.cs_len)
    in
    fun me () ->
      let draw = think_stream ~seed:config.seed ~pid:me in
      let think () =
        for _ = 1 to draw ~mean:config.mean_think do
          M.pause ()
        done
      in
      client (Client.sim ~think) me ()
  in
  let r =
    Adversary.check ~alg:A.name
      (Adversary.run ~max_steps
         ~monitors:[ Spec.Monitor.mutual_exclusion () ]
         ~pick:(Schedule.round_robin ()) ~nprocs:config.n instantiate)
  in
  let entries = Measures.Online.wc_entries r.Adversary.online in
  let steps = List.map (fun (_, s) -> s.Measures.steps) entries in
  let regs = List.map (fun (_, s) -> s.Measures.registers) entries in
  (* Contention level: how many processes are in their entry code at each
     moment a process wins. *)
  let contention_samples =
    Trace.fold_states ~nprocs:config.n
      (fun acc regions e ->
        match e.Event.body with
        | Event.Region_change Event.Critical ->
          let trying =
            Array.to_list regions
            |> List.filter (fun r -> Event.region_equal r Event.Trying)
            |> List.length
          in
          trying :: acc
        | Event.Region_change _ | Event.Access _ | Event.Crash | Event.Recover -> acc)
      [] r.Adversary.outcome.Runner.trace
  in
  let mean xs =
    if xs = [] then 0.
    else
      float_of_int (List.fold_left ( + ) 0 xs) /. float_of_int (List.length xs)
  in
  let cf = Mutex_harness.contention_free (module A) p in
  {
    acquisitions = List.length entries;
    entry_steps_mean = mean steps;
    entry_steps_max = List.fold_left max 0 steps;
    entry_registers_max = List.fold_left max 0 regs;
    cf_steps = cf.Mutex_harness.max.Measures.steps;
    observed_contention = mean contention_samples;
    total_steps = r.Adversary.outcome.Runner.total_steps;
    remote_max =
      Array.fold_left max 0
        (Measures.Online.remote_accesses r.Adversary.online);
  }

let contention_sweep alg ~n ~rounds ~thinks ~seed =
  List.map
    (fun mean_think ->
      (mean_think, run_mutex alg { n; rounds; mean_think; cs_len = 3; seed }))
    thinks

(* ------------------------------------------------------------------ *)
(* The O(active-set) scale rig                                         *)

type scale_config = {
  sc_n : int;
  sc_rounds : int;
  sc_mean_think : int;
  sc_cs_len : int;
  sc_seed : int;
  sc_chaos_pairs : int;
}

type scale_result = {
  sr_acquisitions : int;
  sr_crashes : int;
  sr_recoveries : int;
  sr_entry_steps_max : int;
  sr_entry_steps_mean : float;
  sr_recovery_steps_max : int;
  sr_recovery_rmr_max : int;
  sr_events : int;
  sr_turns : int;
  sr_total_steps : int;
  sr_spawned : int;
  sr_live_peak : int;
}

let run_mutex_scale ?max_turns (module A : Mutex_intf.ALG)
    (sc : scale_config) =
  let n = sc.sc_n in
  let p = Mutex_intf.params n in
  if not (A.supports p) then invalid_arg (A.name ^ ": unsupported");
  if sc.sc_chaos_pairs > 0 && A.recovery p = None then
    invalid_arg
      (A.name
     ^ ": chaos requires a recoverable lock (a crash while holding would \
        deadlock the rig)");
  let memory = Memory.create () in
  let client =
    Client.clients ~rounds:sc.sc_rounds (module A) p (Sim_mem.mem memory)
      ~section:(Client.scratch ~name:"wl.scratch" ~cs_len:sc.sc_cs_len)
  in
  (* Each process's rig, and with it its think stream, lives in the
     spawn closure, outside the thunk body, so a crash–restart continues
     the stream rather than replaying it (a restarted incarnation draws
     fresh think times, as a real client would). *)
  let spawn me =
    client (wheel_rig ~seed:sc.sc_seed ~pid:me ~mean:sc.sc_mean_think) me
  in
  let faults =
    if sc.sc_chaos_pairs = 0 then []
    else
      Fault.chaos ~seed:sc.sc_seed ~nprocs:n ~pairs:sc.sc_chaos_pairs
        ~horizon:(max 1 (n * sc.sc_rounds * (sc.sc_cs_len + 6)))
  in
  let online = Measures.Online.create ~nprocs:n in
  let monitor =
    if sc.sc_chaos_pairs = 0 then Spec.Monitor.mutual_exclusion ()
    else Spec.Monitor.mutual_exclusion_recoverable ()
  in
  let crashes = ref 0 and recoveries = ref 0 in
  let count ~pid:_ body =
    match body with
    | Event.Crash -> incr crashes
    | Event.Recover -> incr recoveries
    | Event.Access _ | Event.Region_change _ -> ()
  in
  let sink =
    Scheduler.tee (Measures.Online.feed online)
      (Scheduler.tee (Spec.Monitor.feed monitor) count)
  in
  let wheel =
    drive ?max_turns ~faults ~alg:A.name ~rounds:sc.sc_rounds ~sink ~nprocs:n
      ~spawn ~monitors:[ ("", monitor) ]
      ~acquisitions:(fun () -> List.length (Measures.Online.wc_entries online))
      ()
  in
  let entries = Measures.Online.wc_entries online in
  let acquisitions = List.length entries in
  let entry_steps = List.map (fun (_, s) -> s.Measures.steps) entries in
  let recs = Measures.Online.recovery_paths online in
  let rmrs = Measures.Online.recovery_rmr online in
  {
    sr_acquisitions = acquisitions;
    sr_crashes = !crashes;
    sr_recoveries = !recoveries;
    sr_entry_steps_max = List.fold_left max 0 entry_steps;
    sr_entry_steps_mean =
      (if entry_steps = [] then 0.
       else
         float_of_int (List.fold_left ( + ) 0 entry_steps)
         /. float_of_int acquisitions);
    sr_recovery_steps_max =
      List.fold_left (fun acc (_, s) -> max acc s.Measures.steps) 0 recs;
    sr_recovery_rmr_max =
      List.fold_left (fun acc (_, r) -> max acc r) 0 rmrs;
    sr_events = Measures.Online.events_seen online;
    sr_turns = Wheel.turns wheel;
    sr_total_steps = Wheel.total_steps wheel;
    sr_spawned = Wheel.spawned wheel;
    sr_live_peak = Wheel.live_peak wheel;
  }
