open Cfc_runtime

type violation = { at : int; pids : int list; what : string }

let pp_violation ppf v =
  Format.fprintf ppf "@[<h>at event %d, processes [%s]: %s@]" v.at
    (String.concat "," (List.map string_of_int v.pids))
    v.what

module Monitor = struct
  (* Until the first violation at most one process occupies the critical
     section — a second entry is the violation, after which the state
     freezes — so occupancy is a single pid. *)

  type mode = Plain | Recoverable

  type t = {
    mode : mode;
    mutable holder : int;  (* the occupant, -1: none *)
    mutable seq : int;
    mutable violation : violation option;
  }

  let create mode = { mode; holder = -1; seq = 0; violation = None }
  let mutual_exclusion () = create Plain
  let mutual_exclusion_recoverable () = create Recoverable
  let leave t pid = if t.holder = pid then t.holder <- -1

  let feed t ~pid body =
    (match t.violation with
    | Some _ -> ()
    | None -> (
      match body with
      | Event.Region_change Event.Critical ->
        if t.holder < 0 || t.holder = pid then t.holder <- pid
        else
          t.violation <-
            Some
              { at = t.seq;
                pids = [ pid; t.holder ];
                what =
                  (match t.mode with
                  | Plain -> "two processes in the critical section"
                  | Recoverable ->
                    "two processes in the critical section (across \
                     recoveries)") }
      | Event.Region_change _ -> leave t pid
      | Event.Recover -> (
        (* Plain occupancy follows Trace.fold_states (a recover resets
           the region to Remainder); recoverable occupancy survives crash
           and recover — only the pid's own region changes open and
           close it. *)
        match t.mode with
        | Plain -> leave t pid
        | Recoverable -> ())
      | Event.Access _ | Event.Crash -> ()));
    t.seq <- t.seq + 1

  let result t = t.violation

  let check create trace =
    let m = create () in
    Trace.iter (fun e -> feed m ~pid:e.Event.pid e.Event.body) trace;
    m.violation
end

let mutual_exclusion trace ~nprocs:_ =
  Monitor.check Monitor.mutual_exclusion trace

let mutual_exclusion_recoverable trace ~nprocs:_ =
  Monitor.check Monitor.mutual_exclusion_recoverable trace

module Inc = struct
  type run = {
    feed : Trace.t -> from:int -> violation option;
    save : unit -> unit -> unit;
  }

  type t = nprocs:int -> run

  let start t ~nprocs = t ~nprocs

  let on_decisions check ~nprocs =
    { feed =
        (fun trace ~from ->
          (* Decision properties are functions of the decisions multiset
             only; if the new events decide nothing, the multiset — and
             therefore the verdict — is unchanged from the (already
             checked) prefix. *)
          let triggered = ref false in
          for i = from to Trace.length trace - 1 do
            match (Trace.get trace i).Event.body with
            | Event.Region_change (Event.Decided _) -> triggered := true
            | Event.Region_change _ | Event.Access _ | Event.Crash
            | Event.Recover -> ()
          done;
          if !triggered then check trace ~nprocs else None);
      save = (fun () -> ignore) }

  let of_monitor create ~nprocs:_ =
    let m = create () in
    { feed =
        (fun trace ~from ->
          (* Event [i] of the trace is the monitor's event [i], so the
             event count needs no checkpoint. *)
          m.Monitor.seq <- from;
          for i = from to Trace.length trace - 1 do
            let e = Trace.get trace i in
            Monitor.feed m ~pid:e.Event.pid e.Event.body
          done;
          m.Monitor.violation);
      save =
        (fun () ->
          let holder = m.Monitor.holder
          and violation = m.Monitor.violation in
          fun () ->
            m.Monitor.holder <- holder;
            m.Monitor.violation <- violation) }

  let mutual_exclusion = of_monitor Monitor.mutual_exclusion

  let mutual_exclusion_recoverable =
    of_monitor Monitor.mutual_exclusion_recoverable
end

let mutex_progress (out : Runner.outcome) =
  let sched = out.Runner.scheduler in
  let nprocs = Scheduler.nprocs sched in
  if not out.Runner.completed then
    Some { at = Trace.length out.Runner.trace; pids = []; what = "run did not complete" }
  else begin
    (* Count Critical entries per process. *)
    let entries = Array.make nprocs 0 in
    Trace.iter
      (fun e ->
        match e.Event.body with
        | Event.Region_change Event.Critical ->
          entries.(e.Event.pid) <- entries.(e.Event.pid) + 1
        | Event.Region_change _ | Event.Access _ | Event.Crash | Event.Recover -> ())
      out.Runner.trace;
    let stuck =
      List.filter
        (fun pid ->
          match Scheduler.status sched pid with
          | Scheduler.Halted -> entries.(pid) = 0
          | Scheduler.Crashed -> false
          | Scheduler.Runnable | Scheduler.Errored _ -> true)
        (List.init nprocs Fun.id)
    in
    if stuck = [] then None
    else
      Some
        { at = Trace.length out.Runner.trace;
          pids = stuck;
          what = "processes finished without entering the critical section" }
  end

let unique_names trace ~nprocs ~n =
  let decided = Measures.decisions trace ~nprocs in
  let bad_range =
    List.filter (fun (_, v) -> v < 1 || v > n) decided
  in
  match bad_range with
  | (pid, v) :: _ ->
    Some
      { at = Trace.length trace;
        pids = [ pid ];
        what = Printf.sprintf "name %d outside 1..%d" v n }
  | [] -> (
    let sorted = List.sort (fun (_, a) (_, b) -> compare a b) decided in
    let rec dup = function
      | (p1, v1) :: (p2, v2) :: _ when v1 = v2 -> Some (p1, p2, v1)
      | _ :: rest -> dup rest
      | [] -> None
    in
    match dup sorted with
    | Some (p1, p2, v) ->
      Some
        { at = Trace.length trace;
          pids = [ p1; p2 ];
          what = Printf.sprintf "duplicate name %d" v }
    | None -> None)

let all_named trace ~nprocs =
  let decided = Measures.decisions trace ~nprocs in
  let crashed =
    Trace.fold
      (fun acc e ->
        match e.Event.body with
        | Event.Crash -> e.Event.pid :: acc
        | Event.Recover -> List.filter (fun p -> p <> e.Event.pid) acc
        | Event.Region_change _ | Event.Access _ -> acc)
      [] trace
  in
  let missing =
    List.filter
      (fun pid ->
        (not (List.mem pid crashed))
        && not (List.mem_assoc pid decided))
      (List.init nprocs Fun.id)
  in
  if missing = [] then None
  else
    Some
      { at = Trace.length trace;
        pids = missing;
        what = "non-crashed processes without a name" }

let at_most_one_winner trace ~nprocs =
  let winners =
    List.filter (fun (_, v) -> v = 1) (Measures.decisions trace ~nprocs)
  in
  match winners with
  | [] | [ _ ] -> None
  | ws ->
    Some
      { at = Trace.length trace;
        pids = List.map fst ws;
        what = "more than one contention-detection winner" }

let solo_wins trace ~nprocs ~pid =
  match List.assoc_opt pid (Measures.decisions trace ~nprocs) with
  | Some 1 -> None
  | Some v ->
    Some
      { at = Trace.length trace;
        pids = [ pid ];
        what = Printf.sprintf "solo process decided %d, expected 1" v }
  | None ->
    Some
      { at = Trace.length trace; pids = [ pid ]; what = "solo process undecided" }
