(* Reference implementations of the §2.2/§3.2 measures and of the
   mutual-exclusion checkers, written as direct walks over a recorded
   trace, and of the model checker's search, which re-executes every
   node from scratch.  The library computes all of these with one
   streaming fold ([Measures.Online]), one occupancy monitor
   ([Spec.Monitor]) and one checkpoint/undo search ([Explore]); the
   equivalence batteries compare those against the definitions here,
   which stay deliberately simple (materialised access lists, region
   arrays, hash sets, fresh systems) so that they can be read against
   the paper. *)

open Cfc_runtime

(* A scheduled run that raises its process error ({!Runner.error}). *)
let run ?max_steps ?crash_at ?faults ~memory ~pick procs =
  let out = Runner.run ?max_steps ?crash_at ?faults ~memory ~pick procs in
  Option.iter raise (Runner.error out);
  out
open Cfc_core

type sample = Measures.sample = {
  steps : int;
  registers : int;
  read_steps : int;
  write_steps : int;
  read_registers : int;
  write_registers : int;
}

(* Accumulate a sample from a list of (register, kind) accesses. *)
let of_accesses accesses =
  let seen = Hashtbl.create 16 in
  let seen_r = Hashtbl.create 16 in
  let seen_w = Hashtbl.create 16 in
  let steps = ref 0 and reads = ref 0 and writes = ref 0 in
  List.iter
    (fun (reg, kind) ->
      incr steps;
      Hashtbl.replace seen reg.Register.id ();
      if Event.is_write kind then begin
        incr writes;
        Hashtbl.replace seen_w reg.Register.id ()
      end
      else begin
        incr reads;
        Hashtbl.replace seen_r reg.Register.id ()
      end)
    accesses;
  {
    steps = !steps;
    registers = Hashtbl.length seen;
    read_steps = !reads;
    write_steps = !writes;
    read_registers = Hashtbl.length seen_r;
    write_registers = Hashtbl.length seen_w;
  }

(* [pid]'s accesses in the fragment [\[from, until)] (defaults: the whole
   trace), in order, and the §2.2 counts over them. *)
let accesses_of ?(from = 0) ?until ~pid trace =
  let until = min (Option.value until ~default:max_int) (Trace.length trace) in
  let acc = ref [] in
  for i = until - 1 downto max 0 from do
    let e = Trace.get trace i in
    match e.Event.body with
    | Event.Access (r, k) when e.Event.pid = pid -> acc := (r, k) :: !acc
    | Event.Access _ | Event.Region_change _ | Event.Crash | Event.Recover -> ()
  done;
  !acc

let fragment ?from ?until ~pid trace =
  of_accesses (accesses_of ?from ?until ~pid trace)

let step_count ?from ?until ~pid t = (fragment ?from ?until ~pid t).steps

let distinct_registers ?from ?until ~pid t =
  (fragment ?from ?until ~pid t).registers

let rw_step_count ?from ?until ~pid t =
  let s = fragment ?from ?until ~pid t in
  (s.read_steps, s.write_steps)

let rw_register_count ?from ?until ~pid t =
  let s = fragment ?from ?until ~pid t in
  (s.read_registers, s.write_registers)

let in_regions trace ~nprocs ~pid ~in_region =
  let accesses =
    Trace.fold_states ~nprocs
      (fun acc regions e ->
        match e.Event.body with
        | Event.Access (r, k) when e.Event.pid = pid && in_region regions.(pid)
          -> (r, k) :: acc
        | Event.Access _ | Event.Region_change _ | Event.Crash | Event.Recover -> acc)
      [] trace
  in
  of_accesses (List.rev accesses)

let mutex_contention_free trace ~nprocs ~pid =
  in_regions trace ~nprocs ~pid ~in_region:(function
    | Event.Trying | Event.Exiting -> true
    | Event.Remainder | Event.Critical | Event.Decided _ | Event.Halted ->
      false)

(* Worst-case entry fragments.  Scan once; for each pid track the sequence
   number after which it (re-)entered Trying, and globally the last state
   in which some process occupied its critical section or exit code.  When
   pid moves Trying -> Critical at event j, the valid window starts after
   both. *)
let mutex_wc_entry trace ~nprocs =
  let entered = Array.make nprocs (-1) in
  let last_occupied = ref (-1) in
  let out = ref [] in
  let occupied regions =
    Array.exists
      (function Event.Critical | Event.Exiting -> true | _ -> false)
      regions
  in
  let (_ : unit) =
    Trace.fold_states ~nprocs
      (fun () regions e ->
        if occupied regions then last_occupied := e.Event.seq;
        match e.Event.body with
        | Event.Region_change Event.Trying -> entered.(e.Event.pid) <- e.Event.seq
        | Event.Region_change Event.Critical
          when Event.region_equal regions.(e.Event.pid) Event.Trying ->
          let pid = e.Event.pid in
          let from = max (entered.(pid) + 1) (!last_occupied + 1) in
          let accesses = accesses_of ~from ~until:e.Event.seq ~pid trace in
          out := (pid, of_accesses accesses) :: !out
        | Event.Region_change _ | Event.Access _ | Event.Crash | Event.Recover -> ())
      () trace
  in
  List.rev !out

let mutex_wc_exit trace ~nprocs =
  let entered_exit = Array.make nprocs (-1) in
  let out = ref [] in
  let (_ : unit) =
    Trace.fold_states ~nprocs
      (fun () regions e ->
        match e.Event.body with
        | Event.Region_change Event.Exiting ->
          entered_exit.(e.Event.pid) <- e.Event.seq
        | Event.Region_change _
          when Event.region_equal regions.(e.Event.pid) Event.Exiting ->
          let pid = e.Event.pid in
          let from = entered_exit.(pid) + 1 in
          let accesses = accesses_of ~from ~until:e.Event.seq ~pid trace in
          out := (pid, of_accesses accesses) :: !out
        | Event.Region_change _ | Event.Access _ | Event.Crash | Event.Recover -> ())
      () trace
  in
  List.rev !out

let per_process_samples trace ~nprocs =
  let steps = Array.make nprocs 0
  and reads = Array.make nprocs 0
  and writes = Array.make nprocs 0 in
  let seen = Array.init nprocs (fun _ -> Hashtbl.create 8) in
  let seen_r = Array.init nprocs (fun _ -> Hashtbl.create 8) in
  let seen_w = Array.init nprocs (fun _ -> Hashtbl.create 8) in
  Trace.iter
    (fun e ->
      match e.Event.body with
      | Event.Access (r, k) ->
        let pid = e.Event.pid in
        steps.(pid) <- steps.(pid) + 1;
        Hashtbl.replace seen.(pid) r.Register.id ();
        if Event.is_write k then begin
          writes.(pid) <- writes.(pid) + 1;
          Hashtbl.replace seen_w.(pid) r.Register.id ()
        end
        else begin
          reads.(pid) <- reads.(pid) + 1;
          Hashtbl.replace seen_r.(pid) r.Register.id ()
        end
      | Event.Region_change _ | Event.Crash | Event.Recover -> ())
    trace;
  Array.init nprocs (fun pid ->
      {
        steps = steps.(pid);
        registers = Hashtbl.length seen.(pid);
        read_steps = reads.(pid);
        write_steps = writes.(pid);
        read_registers = Hashtbl.length seen_r.(pid);
        write_registers = Hashtbl.length seen_w.(pid);
      })

let remote_accesses trace ~nprocs =
  let remote = Array.make nprocs 0 in
  (* valid.(register id) = set of pids holding a valid copy, as a bitmask
     (nprocs <= 62 gets the fast path; beyond that a hashtable of pairs
     would be needed — the harnesses only use this for small n). *)
  if nprocs > 62 then invalid_arg "remote_accesses: nprocs > 62";
  let valid = Hashtbl.create 64 in
  Trace.iter
    (fun e ->
      match e.Event.body with
      | Event.Access (r, k) ->
        let pid = e.Event.pid in
        let holders =
          Option.value ~default:0 (Hashtbl.find_opt valid r.Register.id)
        in
        if holders land (1 lsl pid) = 0 then
          remote.(pid) <- remote.(pid) + 1;
        let holders' =
          if Event.is_write k then 1 lsl pid
          else holders lor (1 lsl pid)
        in
        Hashtbl.replace valid r.Register.id holders'
      | Event.Region_change _ | Event.Crash | Event.Recover -> ())
    trace;
  remote

let recovery_paths trace ~nprocs =
  ignore nprocs;
  (* pid -> sequence number of its currently open Recover event *)
  let open_at = Hashtbl.create 8 in
  let out = ref [] in
  Trace.iter
    (fun e ->
      match e.Event.body with
      | Event.Recover -> Hashtbl.replace open_at e.Event.pid e.Event.seq
      | Event.Crash ->
        (* Crashed again before completing the recovery: the fragment is
           abandoned; a fresh one opens at the next Recover. *)
        Hashtbl.remove open_at e.Event.pid
      | Event.Region_change Event.Critical -> (
        match Hashtbl.find_opt open_at e.Event.pid with
        | Some from ->
          Hashtbl.remove open_at e.Event.pid;
          let accesses =
            accesses_of ~from:(from + 1) ~until:e.Event.seq
              ~pid:e.Event.pid trace
          in
          out := (e.Event.pid, of_accesses accesses) :: !out
        | None -> ())
      | Event.Region_change _ | Event.Access _ -> ())
    trace;
  List.rev !out

let recovery_rmr trace ~nprocs =
  ignore nprocs;
  (* Same write-invalidate holder tracking as [remote_accesses], with the
     crash–recovery refinement: a crash destroys the dying incarnation's
     cache, so the restarted one starts cold (every register is remote
     until re-read).  Fragments open and close exactly as in
     [recovery_paths].  Holders are pid sets rather than
     [remote_accesses]'s bitmasks: the recoverable sweep runs at the
     CLI's default n = 64, past the 62-bit fast path. *)
  let module S = Set.Make (Int) in
  let valid : (int, S.t) Hashtbl.t = Hashtbl.create 64 in
  let open_rmr = Hashtbl.create 8 in
  let out = ref [] in
  Trace.iter
    (fun e ->
      match e.Event.body with
      | Event.Crash ->
        Hashtbl.filter_map_inplace
          (fun _ h -> Some (S.remove e.Event.pid h))
          valid;
        Hashtbl.remove open_rmr e.Event.pid
      | Event.Recover -> Hashtbl.replace open_rmr e.Event.pid 0
      | Event.Region_change Event.Critical -> (
        match Hashtbl.find_opt open_rmr e.Event.pid with
        | Some rmr ->
          Hashtbl.remove open_rmr e.Event.pid;
          out := (e.Event.pid, rmr) :: !out
        | None -> ())
      | Event.Access (r, k) ->
        let pid = e.Event.pid in
        let holders =
          Option.value ~default:S.empty (Hashtbl.find_opt valid r.Register.id)
        in
        (if not (S.mem pid holders) then
           match Hashtbl.find_opt open_rmr pid with
           | Some rmr -> Hashtbl.replace open_rmr pid (rmr + 1)
           | None -> ());
        let holders' =
          if Event.is_write k then S.singleton pid else S.add pid holders
        in
        Hashtbl.replace valid r.Register.id holders'
      | Event.Region_change _ -> ())
    trace;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Mutual exclusion                                                   *)

type violation = Spec.violation = { at : int; pids : int list; what : string }

let mutual_exclusion trace ~nprocs =
  Trace.fold_states ~nprocs
    (fun acc regions e ->
      match acc with
      | Some _ -> acc
      | None -> (
        match e.Event.body with
        | Event.Region_change Event.Critical ->
          let others =
            List.filter
              (fun q ->
                q <> e.Event.pid
                && Event.region_equal regions.(q) Event.Critical)
              (List.init nprocs Fun.id)
          in
          if others = [] then None
          else
            Some
              { at = e.Event.seq;
                pids = e.Event.pid :: others;
                what = "two processes in the critical section" }
        | Event.Region_change _ | Event.Access _ | Event.Crash | Event.Recover -> None))
    None trace

let mutual_exclusion_recoverable trace ~nprocs =
  (* Crash–recovery occupancy (Golab–Ramaraju semantics): a process that
     crashes inside its critical section is still considered to occupy it
     — shared memory says it holds the lock — until it next changes
     region itself (its recovery run re-entering Trying, or re-announcing
     Critical).  So [Crash] and [Recover] leave occupancy untouched; only
     the pid's own [Region_change] events open and close it. *)
  let in_cs = Array.make nprocs false in
  Trace.fold
    (fun acc e ->
      match acc with
      | Some _ -> acc
      | None -> (
        match e.Event.body with
        | Event.Region_change r ->
          let entering = Event.region_equal r Event.Critical in
          if entering then begin
            let others =
              List.filter
                (fun q -> q <> e.Event.pid && in_cs.(q))
                (List.init nprocs Fun.id)
            in
            in_cs.(e.Event.pid) <- true;
            if others = [] then None
            else
              Some
                { at = e.Event.seq;
                  pids = e.Event.pid :: others;
                  what =
                    "two processes in the critical section (across \
                     recoveries)" }
          end
          else begin
            in_cs.(e.Event.pid) <- false;
            None
          end
        | Event.Access _ | Event.Crash | Event.Recover -> None))
    None trace

(* ------------------------------------------------------------------ *)
(* Exhaustive exploration                                             *)

(* The model checker's reference: a dscheck-style search that builds a
   fresh system for every node and re-executes the node's whole
   schedule on it, checks the whole trace with [check], and keys the
   node by a full trace scan.  No checkpoint, no rebuild, no incremental
   checker, no partial-order reduction, exact keys only; the symmetry
   canonicalisation applies.  [Explore]'s engine must give the same
   verdict, schedule and stats under either rollback policy. *)

module Explore = Cfc_mcheck.Explore
module State_key = Cfc_mcheck.State_key

(* A node's key, from its system: register values, and per process its
   status, region and the accesses since its last (re)start, read off
   the trace. *)
let state_key_of_system memory sched trace =
  let nprocs = Scheduler.nprocs sched in
  let obs = Array.make nprocs [] in
  let obs_hash = Array.make nprocs 0 in
  Trace.iter
    (fun e ->
      match e.Event.body with
      | Event.Access (r, k) ->
        let pid = e.Event.pid in
        let c = State_key.cell r k in
        obs.(pid) <- c :: obs.(pid);
        obs_hash.(pid) <- State_key.cell_hash obs_hash.(pid) c
      | Event.Crash ->
        obs.(e.Event.pid) <- [];
        obs_hash.(e.Event.pid) <- 0
      | Event.Region_change _ | Event.Recover -> ())
    trace;
  { State_key.k_regvals = Memory.values memory;
    k_procs =
      Array.init nprocs (fun pid ->
          { State_key.k_status =
              State_key.status_tag (Scheduler.status sched pid);
            k_region = Scheduler.region sched pid;
            k_obs_hash = obs_hash.(pid);
            k_obs = obs.(pid) }) }

(* The polymorphic definitions the typed [State_key] functions replaced:
   structural equality, the rolling observation hash folded with
   [Hashtbl.hash] over the cells oldest first, and the key hash over the
   register values, statuses, [Hashtbl.hash] of the regions and the
   stored observation hashes. *)
let key_equal (a : State_key.t) (b : State_key.t) = a = b

let obs_hash (obs : State_key.cell list) =
  List.fold_left (fun h c -> (h * 31) + Hashtbl.hash c) 0 (List.rev obs)

let key_hash (t : State_key.t) =
  let h = ref 0 in
  Array.iter (fun v -> h := (!h * 31) + v) t.State_key.k_regvals;
  Array.iter
    (fun p ->
      h := (!h * 31) + p.State_key.k_status;
      h := (!h * 31) + Hashtbl.hash p.State_key.k_region;
      h := (!h * 31) + p.State_key.k_obs_hash)
    t.State_key.k_procs;
  !h land max_int

module Keys = Hashtbl.Make (struct
  type t = State_key.t * int

  let equal ((ka, ua) : t) ((kb, ub) : t) = ua = ub && State_key.equal ka kb
  let hash ((k, u) : t) = State_key.hash k + u
end)

(* The choices at a node, in the search's canonical order: steps of the
   runnable processes within their step budget (for a pure symmetry
   group: the started ones, then only the lowest fresh one), crashes of
   started runnable processes while the budget lasts, recoveries. *)
let candidates sched ~(config : Explore.config) ~fresh_only ~pairs ~used =
  let pids = List.init (Scheduler.nprocs sched) Fun.id in
  let runnable p = Scheduler.status sched p = Scheduler.Runnable in
  let steppable =
    List.filter
      (fun p ->
        runnable p
        && Scheduler.steps_taken sched p < config.Explore.max_steps_per_proc)
      pids
  in
  let steps =
    if not fresh_only then steppable
    else
      let started, fresh = List.partition (Scheduler.started sched) steppable in
      started @ match fresh with p :: _ -> [ p ] | [] -> []
  in
  let crashes =
    if pairs > 0 && used < pairs then
      List.filter (fun p -> runnable p && Scheduler.started sched p) pids
    else []
  in
  let recoveries =
    if pairs > 0 then
      List.filter (fun p -> Scheduler.status sched p = Scheduler.Crashed) pids
    else []
  in
  List.map (fun p -> Explore.Step p) steps
  @ List.map (fun p -> Explore.Crash p) crashes
  @ List.map (fun p -> Explore.Recover p) recoveries

exception Found of Explore.action list * violation
exception Budget

let explore_faults ?(config = Explore.default_config) ?symmetry ~pairs ~system
    ~check () : Explore.fault_result =
  let cap = max 64 config.Explore.max_states in
  let seen = Keys.create cap in
  let fresh_only =
    match symmetry with
    | Some s -> Cfc_mcheck.Symmetry.is_pure s
    | None -> false
  in
  let runs = ref 0 and states = ref 0 and dedup = ref 0 and sym = ref 0 in
  let truncated = ref false in
  let leaf ~cut =
    if cut then truncated := true;
    incr runs
  in
  (* [schedule] is newest first. *)
  let rec expand schedule depth used =
    if !states >= config.Explore.max_states then begin
      truncated := true;
      raise Budget
    end;
    incr states;
    let out = Explore.replay_actions ~system ~schedule:(List.rev schedule) in
    let sched = out.Runner.scheduler in
    let next =
      Fun.protect
        ~finally:(fun () -> Scheduler.dispose sched)
        (fun () -> visit schedule used out)
    in
    match next with
    | None -> ()
    | Some [] -> leaf ~cut:(not (Scheduler.all_quiescent sched))
    | Some _ when depth >= config.Explore.max_depth -> leaf ~cut:true
    | Some cands ->
      List.iter
        (fun a ->
          let used = match a with Explore.Crash _ -> used + 1 | _ -> used in
          expand (a :: schedule) (depth + 1) used)
        cands
  (* Check the node and enter its key; [None] when it was seen. *)
  and visit schedule used out =
    let sched = out.Runner.scheduler and trace = out.Runner.trace in
    let nprocs = Scheduler.nprocs sched in
    for pid = 0 to nprocs - 1 do
      match Scheduler.status sched pid with
      | Scheduler.Errored e ->
        raise
          (Found
             ( List.rev schedule,
               { at = Trace.length trace;
                 pids = [ pid ];
                 what = "process error: " ^ Printexc.to_string e } ))
      | Scheduler.Runnable | Scheduler.Halted | Scheduler.Crashed -> ()
    done;
    (match check trace ~nprocs with
    | Some v -> raise (Found (List.rev schedule, v))
    | None -> ());
    let raw = state_key_of_system out.Runner.memory sched trace in
    let key, rewritten =
      match symmetry with
      | None -> (raw, false)
      | Some s ->
        let k, pi = Cfc_mcheck.Symmetry.canon s raw in
        (k, pi <> None)
    in
    if Keys.mem seen (key, used) then begin
      incr (if rewritten then sym else dedup);
      None
    end
    else begin
      Keys.add seen (key, used) ();
      Some (candidates sched ~config ~fresh_only ~pairs ~used)
    end
  in
  let stats () =
    { Explore.runs = !runs; states = !states; pruned_dedup = !dedup;
      pruned_sym = !sym; pruned_por = 0; fp_collisions = 0;
      seen_pop = Keys.length seen; seen_cap = cap; truncated = !truncated }
  in
  match expand [] 0 0 with
  | () | (exception Budget) -> Explore.Ok (stats ())
  | exception Found (schedule, violation) ->
    Explore.Violation { schedule; violation; stats = stats () }

let explore ?config ?symmetry ~system ~check () : Explore.result =
  match explore_faults ?config ?symmetry ~pairs:0 ~system ~check () with
  | Explore.Ok s -> Explore.Ok s
  | Explore.Violation { schedule; violation; stats } ->
    let pid = function
      | Explore.Step p -> p
      | Explore.Crash _ | Explore.Recover _ -> assert false (* pairs = 0 *)
    in
    Explore.Violation { schedule = List.map pid schedule; violation; stats }
