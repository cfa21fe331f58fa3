open Cfc_runtime
open Cfc_mutex

type recovery =
  | Recovered of { path : Measures.sample; rmr : int }
  | Stalled

type sweep_point = {
  crash_step : int;
  crash_region : Event.region;
  outcome : recovery;
}

type double_point = {
  first_crash : int;
  second_crash : int;
  second_region : Event.region;
  final : recovery;
}

let pp_recovery ppf = function
  | Recovered { path; rmr } ->
    Format.fprintf ppf "%a rmr=%d" Measures.pp_sample path rmr
  | Stalled -> Format.fprintf ppf "STALLED"

let pp_sweep_point ppf p =
  Format.fprintf ppf "crash@@%d (%a): %a" p.crash_step Event.pp_region
    p.crash_region pp_recovery p.outcome

let pp_double_point ppf p =
  Format.fprintf ppf "crash@@%d+%d (%a): %a" p.first_crash p.second_crash
    Event.pp_region p.second_region pp_recovery p.final

(* Sequence numbers of [pid]'s Crash events, in trace order. *)
let crash_seqs trace ~pid =
  List.rev
    (Trace.fold
       (fun acc e ->
         match e.Event.body with
         | Event.Crash when e.Event.pid = pid -> e.Event.seq :: acc
         | _ -> acc)
       [] trace)

(* The outcome of the recovery opened by [pid]'s last Recover: its path
   and RMR if it completed (re-entered the critical section), [Stalled]
   otherwise.  One pass feeds the measures fold and finds the pid's last
   Recover and last Critical entry; the fold reports only completed
   recoveries, so "the last one completed" means the last Critical entry
   follows the last Recover. *)
let last_recovery trace ~nprocs ~pid =
  let online = Measures.Online.create ~nprocs in
  let last_recover = ref (-1) and last_critical = ref (-1) in
  Trace.iter
    (fun e ->
      Measures.Online.feed online ~pid:e.Event.pid e.Event.body;
      if e.Event.pid = pid then
        match e.Event.body with
        | Event.Recover -> last_recover := e.Event.seq
        | Event.Region_change Event.Critical -> last_critical := e.Event.seq
        | _ -> ())
    trace;
  if !last_critical < !last_recover then Stalled
  else
    let mine l = List.rev (List.filter (fun (p, _) -> p = pid) l) in
    match
      ( mine (Measures.Online.recovery_paths online),
        mine (Measures.Online.recovery_rmr online) )
    with
    | (_, path) :: _, (_, rmr) :: _ -> Recovered { path; rmr }
    | _ -> Stalled

let solo_sweep ?(rounds = 1) ?(pid = 0) alg (p : Mutex_intf.params) =
  let n = p.Mutex_intf.n in
  let pick () = Schedule.solo pid in
  (* Crash-free reference run: its access count bounds the useful crash
     points (crashing a halted process is a no-op). *)
  let baseline = Mutex_harness.run ~rounds ~pick:(pick ()) alg p in
  let total = baseline.Runner.total_steps in
  List.filter_map
    (fun crash_step ->
      let faults =
        [ Fault.crash ~step:crash_step ~pid;
          Fault.recover ~step:crash_step ~pid ]
      in
      let out = Mutex_harness.run ~rounds ~faults ~pick:(pick ()) alg p in
      match crash_seqs out.Runner.trace ~pid with
      | [] -> None (* the crash never fired: not a run of the sweep *)
      | seq :: _ ->
        let crash_region =
          (Trace.regions_at out.Runner.trace seq ~nprocs:n).(pid)
        in
        (* A restarted incarnation that never re-enters the critical
           section — a recoverable-to-deadlocking regression — must be a
           visible [Stalled] point, not a silently dropped run. *)
        let outcome = last_recovery out.Runner.trace ~nprocs:n ~pid in
        Some { crash_step; crash_region; outcome })
    (List.init total Fun.id)

let double_sweep ?(rounds = 1) ?(pid = 0) ?window alg (p : Mutex_intf.params) =
  let n = p.Mutex_intf.n in
  let pick () = Schedule.solo pid in
  let baseline = Mutex_harness.run ~rounds ~pick:(pick ()) alg p in
  let total = baseline.Runner.total_steps in
  (* The second crash lands up to [window] scheduler steps after the
     first — far enough to hit every step of the restarted incarnation's
     recovery path (and a little beyond, crashing just after it). *)
  let window = match window with Some w -> w | None -> total + 2 in
  List.concat_map
    (fun first_crash ->
      List.filter_map
        (fun d ->
          let second = first_crash + d in
          let faults =
            [ Fault.crash ~step:first_crash ~pid;
              Fault.recover ~step:first_crash ~pid;
              Fault.crash ~step:second ~pid;
              Fault.recover ~step:second ~pid ]
          in
          let out = Mutex_harness.run ~rounds ~faults ~pick:(pick ()) alg p in
          match crash_seqs out.Runner.trace ~pid with
          | [ _; seq2 ] ->
            let second_region =
              (Trace.regions_at out.Runner.trace seq2 ~nprocs:n).(pid)
            in
            let final = last_recovery out.Runner.trace ~nprocs:n ~pid in
            Some { first_crash; second_crash = second; second_region; final }
          | _ -> None (* the second crash fell past the halt: no new run *))
        (List.init window (fun d -> d + 1)))
    (List.init total Fun.id)

let max_path points =
  List.fold_left
    (fun acc p ->
      match p.outcome with
      | Recovered { path; _ } -> Measures.max_sample acc path
      | Stalled -> acc)
    Measures.zero points

let stalled points =
  List.filter (fun p -> p.outcome = Stalled) points

let split_held points =
  (* A crash is "held" when the dying incarnation had reached its
     critical section and not yet completed the exit protocol: regions
     Critical and Exiting.  (Whether the lock is semantically still held
     in Exiting depends on how far the release got — the per-point
     region plus measured path make that visible.) *)
  List.partition
    (fun p ->
      match p.crash_region with
      | Event.Critical | Event.Exiting -> true
      | Event.Remainder | Event.Trying | Event.Decided _ | Event.Halted ->
        false)
    points

let chaos ?(rounds = 2) ?(pairs = 2) ?max_steps ~seed alg
    (p : Mutex_intf.params) =
  let n = p.Mutex_intf.n in
  let memory, procs = Mutex_harness.system ~rounds alg p () in
  (* Spread the fault points over a horizon proportional to the fault-free
     run length so early and late crashes both occur across seeds. *)
  let horizon = max 1 (20 * n * rounds) in
  let plan = Fault.chaos ~seed ~nprocs:n ~pairs ~horizon in
  let max_steps =
    match max_steps with Some m -> m | None -> 10_000 * n * rounds
  in
  let out, err =
    Runner.run_collect ~max_steps ~faults:plan ~memory
      ~pick:(Schedule.round_robin ()) procs
  in
  let violation =
    match err with
    | Some e ->
      Some
        { Spec.at = Trace.length out.Runner.trace;
          pids = [];
          what = "process error: " ^ Printexc.to_string e }
    | None -> Spec.mutual_exclusion_recoverable out.Runner.trace ~nprocs:n
  in
  (out, plan, violation)
