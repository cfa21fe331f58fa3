(* Reference implementations of the §2.2/§3.2 measures and of the
   mutual-exclusion checkers, written as direct walks over a recorded
   trace.  The library computes all of these with one streaming fold
   ([Measures.Online]) and one occupancy monitor ([Spec.Monitor]); the
   equivalence batteries compare those against the definitions here,
   which stay deliberately simple (materialised access lists, region
   arrays, hash sets) so that they can be read against the paper. *)

open Cfc_runtime
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
          let accesses = Trace.accesses_of ~from ~until:e.Event.seq ~pid trace in
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
          let accesses = Trace.accesses_of ~from ~until:e.Event.seq ~pid trace in
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
            Trace.accesses_of ~from:(from + 1) ~until:e.Event.seq
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

