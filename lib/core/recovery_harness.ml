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

(* One solo run of [pid], crashed and restarted just before each of the
   scheduler [steps]: its total accesses, the regions the crashes that
   fired hit, and the outcome of the recovery opened by the last Recover.
   The trace gives the crash points and the pid's last Recover and
   Critical entry; the fold reports only completed recoveries, so the
   last one completed iff its Critical entry follows the Recover.  A
   process error raises. *)
let solo_run ?max_steps ~rounds ~pid alg (p : Mutex_intf.params) steps =
  let r =
    Adversary.run ?max_steps
      ~faults:
        (List.concat_map
           (fun step -> [ Fault.crash ~step ~pid; Fault.recover ~step ~pid ])
           steps)
      ~pick:(Schedule.solo pid) ~nprocs:p.Mutex_intf.n
      (Mutex_harness.instantiate ~rounds alg p)
  in
  let out = Adversary.outcome r in
  let crashes = ref [] in
  let last_recover = ref (-1) and last_critical = ref (-1) in
  Trace.iter
    (fun e ->
      if e.Event.pid = pid then
        match e.Event.body with
        | Event.Crash -> crashes := e.Event.seq :: !crashes
        | Event.Recover -> last_recover := e.Event.seq
        | Event.Region_change Event.Critical -> last_critical := e.Event.seq
        | _ -> ())
    out.Runner.trace;
  let mine l = List.rev (List.filter (fun (q, _) -> q = pid) l) in
  let recovery =
    match
      ( mine (Measures.Online.recovery_paths r.Adversary.online),
        mine (Measures.Online.recovery_rmr r.Adversary.online) )
    with
    | (_, path) :: _, (_, rmr) :: _ when !last_critical > !last_recover ->
      Recovered { path; rmr }
    | _ -> Stalled
  in
  ( out.Runner.total_steps,
    List.rev_map
      (fun seq ->
        (Trace.regions_at out.Runner.trace seq ~nprocs:p.Mutex_intf.n).(pid))
      !crashes,
    recovery )

(* The crash-free reference run's length [total] and a run of the sweep
   with crashes at [steps], cut [2 * (total + 1)] scheduler steps after
   its last crash.  The restarted incarnation re-enters the critical
   section within its recovery code and one crash-free passage, both
   shorter than [total + 1], or never: a non-recoverable lock's stalled
   point spins only that long, not the driver's default budget. *)
let reference ~rounds ~pid alg p =
  let total, _, _ = solo_run ~rounds ~pid alg p [] in
  ( total,
    fun steps ->
      let max_steps = List.fold_left max 0 steps + (2 * (total + 1)) in
      solo_run ~max_steps ~rounds ~pid alg p steps )

let solo_sweep ?(rounds = 1) ?(pid = 0) alg p =
  (* Crash-free reference run: its access count bounds the useful crash
     points (crashing a halted process is a no-op). *)
  let total, crashed = reference ~rounds ~pid alg p in
  List.filter_map
    (fun crash_step ->
      match crashed [ crash_step ] with
      | _, [], _ -> None (* the crash never fired: not a run of the sweep *)
      | _, crash_region :: _, outcome ->
        (* A restarted incarnation that never re-enters the critical
           section — a recoverable-to-deadlocking regression — must be a
           visible [Stalled] point, not a silently dropped run. *)
        Some { crash_step; crash_region; outcome })
    (List.init total Fun.id)

let double_sweep ?(rounds = 1) ?(pid = 0) ?window alg p =
  let total, crashed = reference ~rounds ~pid alg p in
  (* The second crash lands up to [window] scheduler steps after the
     first — far enough to hit every step of the restarted incarnation's
     recovery path (and a little beyond, crashing just after it). *)
  let window = match window with Some w -> w | None -> total + 2 in
  List.concat_map
    (fun first_crash ->
      List.filter_map
        (fun d ->
          let second_crash = first_crash + d in
          match crashed [ first_crash; second_crash ] with
          | _, [ _; second_region ], final ->
            Some { first_crash; second_crash; second_region; final }
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

let chaos ?(rounds = 2) ?(pairs = 2) ?max_steps ~seed alg
    (p : Mutex_intf.params) =
  let n = p.Mutex_intf.n in
  (* Spread the fault points over a horizon proportional to the fault-free
     run length so early and late crashes both occur across seeds. *)
  let horizon = max 1 (20 * n * rounds) in
  let plan = Fault.chaos ~seed ~nprocs:n ~pairs ~horizon in
  let max_steps = Option.value max_steps ~default:(10_000 * n * rounds) in
  let r =
    Adversary.run ~max_steps ~faults:plan
      ~monitors:[ Spec.Monitor.mutual_exclusion_recoverable () ]
      ~pick:(Schedule.round_robin ()) ~nprocs:n
      (Mutex_harness.instantiate ~rounds alg p)
  in
  let violation =
    match Runner.error r.Adversary.outcome with
    | Some (Runner.Process_error { error; _ }) ->
      Some
        { Spec.at = Trace.length r.Adversary.outcome.Runner.trace;
          pids = [];
          what = "process error: " ^ Printexc.to_string error }
    | Some _ | None -> r.Adversary.violation
  in
  (r, plan, violation)
