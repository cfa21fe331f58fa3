open Cfc_base
open Cfc_runtime
open Cfc_mutex

type cf_result = {
  max : Measures.sample;
  per_process : Measures.sample array;
  atomicity_declared : int;
  atomicity_observed : int;
}

exception Critical_section_trampled of int

let instantiate (module A : Mutex_intf.ALG) (p : Mutex_intf.params) =
  if not (A.supports p) then
    invalid_arg
      (Printf.sprintf "%s does not support n=%d l=%d" A.name p.Mutex_intf.n
         p.Mutex_intf.l);
  let memory = Memory.create () in
  let module M = (val Sim_mem.mem memory) in
  let module L = A.Make (M) in
  let inst = L.create p in
  let observed_width = Memory.max_width memory in
  (* A witness register exercised inside the critical section: it widens
     the window in which an exclusion failure is observable and directly
     detects a concurrent writer.  Its accesses happen in the [Critical]
     region, so no §2.2 measure counts them. *)
  let witness =
    M.alloc ~name:"cs.witness"
      ~width:(Ixmath.bits_needed (max 1 (p.Mutex_intf.n - 1)))
      ~init:0 ()
  in
  let proc ~me ~rounds () =
    for _ = 1 to rounds do
      Proc.region Event.Trying;
      L.lock inst ~me;
      Proc.region Event.Critical;
      M.write witness me;
      if M.read witness <> me then raise (Critical_section_trampled me);
      Proc.region Event.Exiting;
      L.unlock inst ~me;
      Proc.region Event.Remainder
    done
  in
  (memory, observed_width, proc)

(* Resetting the whole arena between solo runs is O(n . registers);
   a solo run touches only O(depth) registers, so reset just those. *)
let reset_touched memory trace =
  match trace with
  | None -> Memory.reset memory
  | Some t ->
    Trace.iter
      (fun e ->
        match e.Event.body with
        | Event.Access (r, _) -> Register.reset r
        | Event.Region_change _ | Event.Crash | Event.Recover -> ())
      t

(* Which processes to measure: all of them up to 64, then a deterministic
   spread (ends, powers of two, and their neighbours) — our algorithms'
   solo cost depends on the pid only through its tree position, and the
   per-pid equality is asserted exhaustively at small n by the tests. *)
let sample_pids n =
  if n <= 64 then List.init n Fun.id
  else begin
    let candidates =
      [ 0; 1; 2; (n / 2) - 1; n / 2; n - 2; n - 1 ]
      @ List.concat_map
          (fun k ->
            let v = Ixmath.pow2 k in
            if v < n then [ v - 1; v ] else [])
          (List.init 20 Fun.id)
    in
    List.sort_uniq compare (List.filter (fun i -> i >= 0 && i < n) candidates)
  end

(* The §2.2 contention-free run of [me] has every other process still
   in its remainder (never started): the wheel with only [me] woken, so
   the whole run is one run-ahead step.  Nothing is O(n) per run but the
   wheel's pid table — the arena is allocated once, one process record
   is spawned, no trace is recorded, one online fold is reset between
   runs with its tables kept, and the between-runs reset touches exactly
   the registers the fold saw, which is what makes the n = 10^5 sweeps
   of EXP-SCALE possible. *)
let contention_free (module A : Mutex_intf.ALG) (p : Mutex_intf.params) =
  let n = p.Mutex_intf.n in
  let _memory, observed_width, proc = instantiate (module A) p in
  let spawn me = proc ~me ~rounds:1 in
  let solo me sink =
    let wheel = Wheel.create ~sink ~nprocs:n ~spawn () in
    Wheel.wake wheel me;
    ignore (Wheel.run wheel : Wheel.stopped);
    wheel
  in
  let online = Measures.Online.create ~nprocs:n in
  let per_process =
    List.map
      (fun me ->
        Measures.Online.reset online;
        let wheel = solo me (Measures.Online.feed online) in
        List.iter Register.reset (Measures.Online.touched online);
        (match Wheel.first_error wheel with
        | None -> ()
        | Some (pid, error) ->
          (* The run is deterministic: from the same fresh registers, a
             traced rerun reaches the same error. *)
          let trace = Trace.create () in
          ignore (solo me (Scheduler.trace_sink trace) : Wheel.t);
          raise
            (Runner.Process_error
               { pid; steps = Wheel.steps_taken wheel pid; error;
                 recent = Trace.last ~pid 5 trace }));
        Measures.Online.contention_free online ~pid:me)
      (sample_pids n)
    |> Array.of_list
  in
  {
    max = Array.fold_left Measures.max_sample Measures.zero per_process;
    per_process;
    atomicity_declared = A.atomicity p;
    atomicity_observed = observed_width;
  }

let contention_free_streaming = contention_free

let system ?(rounds = 1) (module A : Mutex_intf.ALG) (p : Mutex_intf.params)
    () =
  let memory, _, proc = instantiate (module A) p in
  (memory, Array.init p.Mutex_intf.n (fun me -> proc ~me ~rounds))

let run ?(rounds = 1) ?max_steps ?crash_at ?faults ~pick
    (module A : Mutex_intf.ALG) (p : Mutex_intf.params) =
  let memory, _, proc = instantiate (module A) p in
  let procs = Array.init p.Mutex_intf.n (fun me -> proc ~me ~rounds) in
  Runner.run ?max_steps ?crash_at ?faults ~memory ~pick procs

let wc_estimate ?(rounds = 2) ~seeds alg (p : Mutex_intf.params) ~entry =
  let fragments out =
    let online =
      Measures.Online.of_trace ~nprocs:p.Mutex_intf.n out.Runner.trace
    in
    let frags =
      if entry then Measures.Online.wc_entries online
      else Measures.Online.wc_exits online
    in
    List.fold_left
      (fun acc (_, s) -> Measures.max_sample acc s)
      Measures.zero frags
  in
  let with_pick mk =
    let out = run ~rounds ~max_steps:2_000_000 ~pick:(mk ()) alg p in
    fragments out
  in
  let base = with_pick Schedule.round_robin in
  List.fold_left
    (fun acc seed ->
      Measures.max_sample acc (with_pick (fun () -> Schedule.random ~seed)))
    base seeds

(* Explicit 2-process schedule forcing the eventual winner of Lamport's
   fast algorithm to spin [spin] times inside a window where no process
   occupies the critical section (see the .mli).  Process 0 uses slot 1,
   process 1 slot 2; the step-by-step account is in the comments. *)
let lamport_unbounded_entry ~spin =
  let p = Mutex_intf.params 2 in
  let memory, _, proc = instantiate (module Lamport_fast) p in
  let procs = Array.init 2 (fun me -> proc ~me ~rounds:1) in
  let prefix =
    List.concat
      [ [ 0; 0; 0; 0 ];  (* p0: b1:=1; x:=1; read y=0; y:=1            *)
        [ 1; 1 ];        (* p1: b2:=1; x:=2                            *)
        [ 0; 0; 0; 0 ];  (* p0: read x=2 (fast path lost); b1:=0;
                            slow-path scan: read b1=0; read b2=1       *)
        (* p0 spins on b2: each loop iteration costs two scheduler
           turns (one read access + one free pause), so schedule 2·spin
           turns to get at least [spin] counted accesses. *)
        List.init (2 * spin) (fun _ -> 0);
        [ 1; 1 ];        (* p1: read y=1 (gate closed); b2:=0          *)
      ]
  in
  let pick = Schedule.pref_then prefix (Schedule.round_robin ()) in
  let out = Runner.run ~memory ~pick procs in
  (match Spec.mutual_exclusion out.Runner.trace ~nprocs:2 with
  | None -> ()
  | Some v ->
    invalid_arg (Format.asprintf "unbounded demo: %a" Spec.pp_violation v));
  let entries =
    Measures.Online.wc_entries
      (Measures.Online.of_trace ~nprocs:2 out.Runner.trace)
  in
  List.fold_left
    (fun acc (pid, s) -> if pid = 0 then Measures.max_sample acc s else acc)
    Measures.zero entries
