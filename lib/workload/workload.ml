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

let default = { n = 4; rounds = 20; mean_think = 10; cs_len = 3; seed = 42 }

type result = {
  acquisitions : int;
  entry_steps_mean : float;
  entry_steps_max : int;
  entry_registers_max : int;
  cf_steps : int;
  observed_contention : float;
  total_steps : int;
}

(* Geometric think time (expectation [mean], seeded per process): one
   uniform draw inverted through Ixmath.geometric, so the distribution is
   shared verbatim with the native lock service.  The per-pid state is
   split-seeded through Ixmath.mix_seed — seeding with the raw
   [| seed; pid |] pair correlates adjacent pids (the scale rig switched
   for exactly this reason); the mixer's full avalanche decorrelates
   them, and the native Lock_service derives its streams identically. *)
let think_stream ~seed ~pid =
  let st = Random.State.make [| Ixmath.mix_seed seed pid |] in
  fun ~mean ->
    if mean = 0 then 0
    else Ixmath.geometric ~u:(Random.State.float st 1.0) ~mean

exception Stalled of { alg : string; stopped : Runner.stopped;
                       acquisitions : int; max_steps : int }

let () =
  Printexc.register_printer (function
    | Stalled { alg; stopped; acquisitions; max_steps } ->
      Some
        (Format.asprintf
           "Workload.Stalled: %s exhausted its step budget (%a after %d \
            scheduler steps, %d acquisitions completed) — raise \
            ~max_steps or shrink the workload"
           alg Runner.pp_stopped stopped max_steps acquisitions)
    | _ -> None)

let run_mutex ?(max_steps = 10_000_000) (module A : Mutex_intf.ALG) config =
  let p = Mutex_intf.params config.n in
  if not (A.supports p) then invalid_arg (A.name ^ ": unsupported");
  let memory = Memory.create () in
  let module M = (val Sim_mem.mem memory) in
  let module L = A.Make (M) in
  let inst = L.create p in
  let cs_scratch = M.alloc ~name:"wl.scratch" ~width:8 ~init:0 () in
  let proc me () =
    let think = think_stream ~seed:config.seed ~pid:me in
    for _ = 1 to config.rounds do
      for _ = 1 to think ~mean:config.mean_think do
        M.pause ()
      done;
      Proc.region Event.Trying;
      L.lock inst ~me;
      Proc.region Event.Critical;
      for k = 1 to config.cs_len do
        M.write cs_scratch (k land 255)
      done;
      Proc.region Event.Exiting;
      L.unlock inst ~me;
      Proc.region Event.Remainder
    done
  in
  let procs = Array.init config.n proc in
  let out =
    Runner.run ~max_steps ~memory ~pick:(Schedule.round_robin ()) procs
  in
  (match Spec.mutual_exclusion out.Runner.trace ~nprocs:config.n with
  | None -> ()
  | Some v ->
    invalid_arg (Format.asprintf "%s: %a" A.name Spec.pp_violation v));
  let entries =
    Measures.Online.wc_entries
      (Measures.Online.of_trace ~nprocs:config.n out.Runner.trace)
  in
  let acquisitions = List.length entries in
  (* A run cut short by the step budget has under-counted acquisitions
     and truncated fragments: refuse to report them as measurements. *)
  (match out.Runner.stopped with
  | Runner.Quiescent -> ()
  | (Runner.Out_of_steps | Runner.Picker_done) as stopped ->
    raise (Stalled { alg = A.name; stopped; acquisitions; max_steps }));
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
      [] out.Runner.trace
  in
  let mean xs =
    if xs = [] then 0.
    else
      float_of_int (List.fold_left ( + ) 0 xs) /. float_of_int (List.length xs)
  in
  let cf = Mutex_harness.contention_free (module A) p in
  {
    acquisitions;
    entry_steps_mean = mean steps;
    entry_steps_max = List.fold_left max 0 steps;
    entry_registers_max = List.fold_left max 0 regs;
    cf_steps = cf.Mutex_harness.max.Measures.steps;
    observed_contention = mean contention_samples;
    total_steps = out.Runner.total_steps;
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

let scale_default =
  { sc_n = 1024; sc_rounds = 2; sc_mean_think = 4096; sc_cs_len = 3;
    sc_seed = 42; sc_chaos_pairs = 0 }

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
  let module M = (val Sim_mem.mem memory) in
  let module L = A.Make (M) in
  let inst = L.create p in
  let cs_scratch = M.alloc ~name:"wl.scratch" ~width:8 ~init:0 () in
  (* Split seeds: each process owns an independent stream derived from
     (root seed, pid) through a full-avalanche mixer, so materialising
     process k never advances any other process's stream — determinism
     is per process, not per global draw order.  The stream lives in the
     spawn closure, outside the thunk body, so a crash–restart continues
     it rather than replaying it (a restarted incarnation draws fresh
     think times, as a real client would). *)
  let spawn me =
    let st = Random.State.make [| Ixmath.mix_seed sc.sc_seed me |] in
    let draw () =
      if sc.sc_mean_think = 0 then 0
      else
        Ixmath.geometric
          ~u:(Random.State.float st 1.0)
          ~mean:sc.sc_mean_think
    in
    fun () ->
      for _ = 1 to sc.sc_rounds do
        let d = draw () in
        if d > 0 then Proc.sleep d;
        Proc.region Event.Trying;
        L.lock inst ~me;
        Proc.region Event.Critical;
        for k = 1 to sc.sc_cs_len do
          M.write cs_scratch (k land 255)
        done;
        Proc.region Event.Exiting;
        L.unlock inst ~me;
        Proc.region Event.Remainder
      done
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
    Wheel.tee (Measures.Online.feed online)
      (Wheel.tee (Spec.Monitor.feed monitor) count)
  in
  let wheel = Wheel.create ~sink ~faults ~nprocs:n ~spawn () in
  for pid = 0 to n - 1 do
    Wheel.wake wheel pid
  done;
  let max_turns =
    match max_turns with
    | Some m -> m
    | None -> 20_000 * n * max 1 sc.sc_rounds
  in
  let stopped = Wheel.run ~max_turns wheel in
  (match Wheel.first_error wheel with
  | None -> ()
  | Some (pid, e) ->
    invalid_arg
      (Printf.sprintf "%s: p%d errored: %s" A.name pid (Printexc.to_string e)));
  (match Spec.Monitor.result monitor with
  | None -> ()
  | Some v ->
    invalid_arg (Format.asprintf "%s: %a" A.name Spec.pp_violation v));
  let entries = Measures.Online.wc_entries online in
  let acquisitions = List.length entries in
  (match stopped with
  | Wheel.Quiescent -> ()
  | Wheel.Out_of_turns ->
    raise
      (Stalled { alg = A.name; stopped = Runner.Out_of_steps; acquisitions;
                 max_steps = max_turns }));
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
