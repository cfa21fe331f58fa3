type status = Runnable | Halted | Crashed | Errored of exn

type sink = pid:int -> Event.body -> unit

let null_sink ~pid:_ _ = ()
let trace_sink trace ~pid body = ignore (Trace.record trace ~pid body)
let tee a b ~pid body = a ~pid body; b ~pid body

type pstate = {
  pid : int;
  thunk : unit -> unit;
  mutable susp : Proc.suspension;
      (* the live suspension, or [parked] when there is none: not yet
         started, finished, crashed, or its continuation was invalidated
         by [restore] (rebuilt lazily at the next [step]).  Held unboxed,
         so parking a step stores the suspension itself. *)
  mutable status : status;
  mutable region : Event.region;
  mutable steps : int;
  mutable calls : int;
      (* access, pause or sleep continuations resumed since the last
         (re)start; pins the suspension point for observation replay *)
  mutable started : bool;
  mutable stamp : int;  (* clock value of the last step, crash or recover *)
  mutable failed : (int * exn) list;
      (* register ops that raised and that the process caught, newest
         first, since its last (re)start: the [calls] count at which
         each raised, and its exception.  [rebuild] raises them again. *)
}

(* The empty [susp] marker.  No live process is ever parked on [Done]:
   [finish] takes a process that reached it out of the runnable set. *)
let parked = Proc.Done
let[@inline] is_parked s = s == parked

(* The table's empty slot.  Its fields are the state of a process nobody
   has touched, so queries read it as is; it is never mutated. *)
let absent =
  { pid = -1; thunk = ignore; susp = parked; status = Runnable;
    region = Event.Remainder; steps = 0; calls = 0; started = false;
    stamp = 0; failed = [] }

type t = {
  nprocs : int;
  spawn : int -> unit -> unit;
  procs : pstate array;  (* [absent] until the pid is first touched *)
  mutable spawned : int;
  sink : sink;
  replay : (Memory.cursor * (int -> Event.access_kind list)) option;
      (* the arena's cursor, and per pid the access kinds observed since
         its last (re)start, oldest first — what [rebuild] replays *)
  mutable active : int;  (* processes still Runnable *)
  mutable clock : int;
  mutable ahead : int;  (* run-ahead budget of this step, not yet armed *)
  mutable ahead_taken : int;  (* inline accesses of the last step *)
  mutable home : Register.home;
      (* the arena last armed: where a pause arms, and what [disarm]
         revokes *)
}

exception Replay_mismatch of string

let make ~sink ~nprocs ~spawn replay =
  { nprocs; spawn; procs = Array.make nprocs absent; spawned = 0; sink;
    replay; active = nprocs; clock = 0; ahead = 0;
    ahead_taken = 0; home = Register.Unhomed }

let of_spawn ~sink ~nprocs ~spawn = make ~sink ~nprocs ~spawn None

let create ?oracle ~memory ~trace thunks =
  make ~sink:(trace_sink trace) ~nprocs:(Array.length thunks)
    ~spawn:(Array.get thunks)
    (Option.map (fun o -> (Memory.cursor memory, o)) oracle)

let out_of_range t pid =
  invalid_arg
    (Printf.sprintf "Scheduler: pid %d out of range (nprocs = %d)" pid
       t.nprocs)

(* Small enough to inline into the queries, which the checker's
   candidate generation calls for every pid at every node. *)
let slot t pid =
  if pid < 0 || pid >= t.nprocs then out_of_range t pid;
  Array.unsafe_get t.procs pid

let proc t pid =
  let p = slot t pid in
  if p != absent then p
  else begin
    let p = { absent with pid; thunk = t.spawn pid } in
    t.procs.(pid) <- p;
    t.spawned <- t.spawned + 1;
    p
  end

let spawn t pid =
  if slot t pid != absent then false
  else begin
    ignore (proc t pid);
    true
  end

let nprocs t = t.nprocs
let status t pid = (slot t pid).status
let region t pid = (slot t pid).region
let steps_taken t pid = (slot t pid).steps
let started t pid = (slot t pid).started
let stamp t pid = (slot t pid).stamp
let spawned t = t.spawned
let total_steps t = Array.fold_left (fun acc p -> acc + p.steps) 0 t.procs

let runnable t =
  let acc = ref [] in
  for pid = t.nprocs - 1 downto 0 do
    if t.procs.(pid).status = Runnable then acc := pid :: !acc
  done;
  !acc

let all_quiescent t = t.active = 0

type step_result = Progress | Asleep of int | Finished | Not_runnable

let emit t p body = t.sink ~pid:p.pid body

let bump t p =
  t.clock <- t.clock + 1;
  p.stamp <- t.clock

let enter t p r =
  p.region <- r;
  emit t p (Event.Region_change r)

let finish t p status =
  t.active <- t.active - 1;
  p.susp <- parked;
  p.status <- status;
  (match status with
  | Halted -> enter t p Event.Halted
  | Runnable | Crashed | Errored _ -> ());
  Finished

(* Run-ahead (see [step_ahead]): hand this step's budget to the arena
   [home], once per step and only after the step's own access or pause.
   The process's next accesses then run inline in {!Sim_mem}, and the
   tap emits and counts each one through [access], as for a suspended
   access. *)
let rec arm t p home =
  match home with
  | Memory.Arena cur ->
    Memory.grant cur t.ahead (fun r kind ->
        t.ahead_taken <- t.ahead_taken + 1;
        access t p r kind);
    t.ahead <- 0;
    t.home <- home
  | _ -> ()

and access t p r kind =
  emit t p (Event.Access (r, kind));
  p.steps <- p.steps + 1;
  p.calls <- p.calls + 1;
  if t.ahead > 0 then arm t p r.Register.home

let disarm t =
  t.ahead <- 0;
  match t.home with Memory.Arena cur -> Memory.revoke cur | _ -> ()

let discontinue_susp s =
  let kill k = try ignore (Effect.Deep.discontinue k Proc.Crashed) with _ -> () in
  match s with
  | Proc.Done | Proc.Failed _ -> ()
  | Proc.Read (_, k) -> kill k
  | Proc.Write (_, _, k) -> kill k
  | Proc.Write_field (_, _, _, _, k) -> kill k
  | Proc.Xchg (_, _, k) -> kill k
  | Proc.Cas (_, _, _, k) -> kill k
  | Proc.Bit_op (_, _, k) -> kill k
  | Proc.Region (_, k) -> kill k
  | Proc.Pause k -> kill k
  | Proc.Sleep (_, k) -> kill k

(* Run [p] from [s] up to and including its next shared access (or
   pause), absorbing free region changes.  A sleep reached here ends the
   step before it: the process parks at the sleep, and its next step
   resumes through it. *)
let rec go t p s =
  match s with
  | Proc.Done -> finish t p Halted
  | Proc.Failed e -> finish t p (Errored e)
  | Proc.Region (r, k) ->
    enter t p r;
    go t p (Effect.Deep.continue k ())
  | Proc.Sleep (d, _) ->
    p.susp <- s;
    Asleep d
  | Proc.Pause k ->
    p.calls <- p.calls + 1;
    if t.ahead > 0 then arm t p t.home;
    settle t p (Effect.Deep.continue k ())
  | Proc.Read (r, k) -> begin
    match Register.read r with
    | v ->
      access t p r (Event.A_read v);
      settle t p (Effect.Deep.continue k v)
    | exception e -> abort t p k e
  end
  | Proc.Write (r, v, k) -> begin
    match Register.write r v with
    | () ->
      access t p r (Event.A_write v);
      settle t p (Effect.Deep.continue k ())
    | exception e -> abort t p k e
  end
  | Proc.Write_field (r, index, width, v, k) -> begin
    match Register.write_field r ~index ~width v with
    | () ->
      access t p r (Event.A_field (index, width, v));
      settle t p (Effect.Deep.continue k ())
    | exception e -> abort t p k e
  end
  | Proc.Xchg (r, v, k) -> begin
    match Register.fetch_and_store r v with
    | old ->
      access t p r (Event.A_xchg (v, old));
      settle t p (Effect.Deep.continue k old)
    | exception e -> abort t p k e
  end
  | Proc.Cas (r, expected, v, k) -> begin
    match Register.compare_and_set r ~expected v with
    | success ->
      access t p r (Event.A_cas (expected, v, success));
      settle t p (Effect.Deep.continue k success)
    | exception e -> abort t p k e
  end
  | Proc.Bit_op (r, op, k) -> begin
    match Register.bit_op r op with
    | ret ->
      access t p r (Event.A_bit (op, ret));
      settle t p (Effect.Deep.continue k ret)
    | exception e -> abort t p k e
  end

(* Park the post-access suspension.  Region changes are free local
   events: absorb them eagerly so a process's protocol region is always
   current at the end of the step that made it true (deferring them
   would create phantom occupancy windows that skew the §2.2 fragment
   measures).  Completion is also finalized eagerly so quiescence is
   observable without another step. *)
and settle t p s =
  match s with
  | Proc.Done -> finish t p Halted
  | Proc.Failed e -> finish t p (Errored e)
  | Proc.Region (r, k) ->
    enter t p r;
    settle t p (Effect.Deep.continue k ())
  | Proc.Sleep (d, _) ->
    p.susp <- s;
    Asleep d
  | Proc.Read _ | Proc.Write _ | Proc.Write_field _ | Proc.Xchg _
  | Proc.Cas _ | Proc.Bit_op _ | Proc.Pause _ ->
    p.susp <- s;
    Progress

(* A semantic violation (model/width): unwind the process with the
   offending exception so its continuation is consumed.  A process that
   catches it and keeps going goes on within the same step; the trace
   holds no answer for the failed op, so the failure is logged for
   [rebuild]. *)
and abort : type a.
    t -> pstate -> (a, Proc.suspension) Effect.Deep.continuation -> exn ->
    step_result =
 fun t p k e ->
  match Effect.Deep.discontinue k e with
  | (Proc.Done | Proc.Failed _) as s -> settle t p s
  | s ->
    p.failed <- (p.calls, e) :: p.failed;
    go t p s
  | exception e' -> settle t p (Proc.Failed e')

(* Raise [e] in a process suspended at a register op, as [abort] did. *)
let fail_at s e =
  let raise_in k = Some (Effect.Deep.discontinue k e) in
  match s with
  | Proc.Read (_, k) -> raise_in k
  | Proc.Write (_, _, k) -> raise_in k
  | Proc.Write_field (_, _, _, _, k) -> raise_in k
  | Proc.Xchg (_, _, k) -> raise_in k
  | Proc.Cas (_, _, _, k) -> raise_in k
  | Proc.Bit_op (_, _, k) -> raise_in k
  | Proc.Done | Proc.Failed _ | Proc.Region _ | Proc.Pause _ | Proc.Sleep _ ->
    None

let replay_mismatch cur p s what =
  ignore (Memory.replay_stop cur);
  discontinue_susp s;
  raise (Replay_mismatch (Printf.sprintf "pid %d: %s" p.pid what))

(* Answer calls up to the next logged failure, or to the end. *)
let replay_segment cur p ~from failed answers =
  let upto = match failed with (at, _) :: _ -> at | [] -> p.calls in
  Memory.replay_start cur ~calls:(upto - from) answers

let rec drive cur p s failed =
  match s with
  | Proc.Region (_, k) -> drive cur p (Effect.Deep.continue k ()) failed
  | _ when not (Memory.replaying cur) -> (
    match failed with
    | [] -> s
    | (at, e) :: failed -> (
      (* load the next segment first: the process runs on into it *)
      replay_segment cur p ~from:at failed cur.Memory.answers;
      match fail_at s e with
      | Some s -> drive cur p s failed
      | None ->
        replay_mismatch cur p s "logged failure is not at a register op"))
  | Proc.Sleep (_, k) ->
    Memory.replay_skip cur;
    drive cur p (Effect.Deep.continue k ()) failed
  | Proc.Done | Proc.Failed _ ->
    replay_mismatch cur p s "process terminated early"
  | _ -> (
    match Memory.replay_pending cur with
    | [] -> replay_mismatch cur p s "observation list exhausted"
    | _ :: _ ->
      replay_mismatch cur p s "recorded observation is of another kind")

(* Reconstruct the suspension of a process whose continuation was
   invalidated by [restore].  One-shot continuations cannot be cloned, so
   we restart the thunk and replay its (deterministic) prefix until
   exactly [p.calls] access, pause or sleep calls have been answered.
   The answers sit on the arena's replay cursor, where {!Sim_mem}'s
   operations take them without performing an effect, and region
   changes (free, already recorded before the checkpoint) are skipped
   by {!Proc.region} while the rebuild flag is set.  The only effects
   that reach [drive] (top-level, so that a rebuild allocates no
   closure) are sleeps, the op at each logged
   failure (the cursor is loaded one segment at a time, so it runs dry
   exactly there, and the op gets its exception again), the first call
   past the prefix (the suspension we want), and a call the recording
   cannot answer — its kind does not match or the list ran out — which
   [drive] reports as {!Replay_mismatch}. *)
let rebuild t p =
  let cur, oracle =
    match t.replay with
    | Some r -> r
    | None ->
      invalid_arg
        "Scheduler.rebuild: no observation oracle (create with ~oracle \
         before using snapshot/restore)"
  in
  let failed = List.rev p.failed in
  replay_segment cur p ~from:0 failed (oracle p.pid);
  let rebuilding = Proc.rebuilding () in
  rebuilding := true;
  match drive cur p (Proc.start p.thunk) failed with
  | s ->
    rebuilding := false;
    if not (Memory.replay_stop cur) then
      replay_mismatch cur p s "unconsumed observations after replay";
    s
  | exception e ->
    rebuilding := false;
    raise e

let advance t p =
  if is_parked p.susp && not p.started then begin
    p.started <- true;
    bump t p;
    go t p (Proc.start p.thunk)
  end
  else begin
    let s = if is_parked p.susp then rebuild t p else p.susp in
    bump t p;
    match s with
    | Proc.Sleep (_, k) ->
      (* The sleep this process parked at is over. *)
      p.calls <- p.calls + 1;
      go t p (Effect.Deep.continue k ())
    | s -> go t p s
  end

let step t pid =
  let p = proc t pid in
  if p.status <> Runnable then Not_runnable else advance t p

let step_ahead t pid ~ahead =
  t.ahead_taken <- 0;
  if ahead <= 0 then step t pid
  else
    let p = proc t pid in
    if p.status <> Runnable then Not_runnable
    else begin
      t.ahead <- ahead;
      match advance t p with
      | result ->
        disarm t;
        result
      | exception e ->
        disarm t;
        raise e
    end
let ahead_taken t = t.ahead_taken

let crash t pid =
  let p = proc t pid in
  if p.status = Runnable then begin
    (* A parked slot on a started process means its continuation was
       invalidated by [restore]; there is nothing live to unwind
       ([discontinue_susp] ignores [Done]). *)
    discontinue_susp p.susp;
    p.susp <- parked;
    t.active <- t.active - 1;
    p.status <- Crashed;
    bump t p;
    emit t p Event.Crash
  end

let recover t pid =
  let p = proc t pid in
  if p.status = Crashed then begin
    (* Crash–recovery model: local state is lost (the consumed suspension
       is dropped, so the next [step] re-invokes the process thunk from
       the top), shared memory persists untouched.  The restarted process
       begins in Remainder, like a freshly created one. *)
    p.susp <- parked;
    p.status <- Runnable;
    p.region <- Event.Remainder;
    p.calls <- 0;
    p.started <- false;
    p.failed <- [];
    t.active <- t.active + 1;
    bump t p;
    emit t p Event.Recover
  end

(* Struct of arrays, one slot per pid, so that a caller checkpointing at
   every node can fill one snap per depth ([snapshot_into]) instead of
   allocating a record per process on every save. *)
type snap = {
  mutable s_active : int;
  s_status : status array;
  s_region : Event.region array;
  s_steps : int array;
  s_calls : int array;
  s_started : bool array;
  s_stamp : int array;
  s_failed : (int * exn) list array;
}

let save_slot t s i =
  let p = Array.unsafe_get t.procs i in
  s.s_status.(i) <- p.status;
  s.s_region.(i) <- p.region;
  s.s_steps.(i) <- p.steps;
  s.s_calls.(i) <- p.calls;
  s.s_started.(i) <- p.started;
  s.s_stamp.(i) <- p.stamp;
  s.s_failed.(i) <- p.failed

let snapshot_into t s =
  s.s_active <- t.active;
  for i = 0 to t.nprocs - 1 do
    save_slot t s i
  done

let snapshot_pid_into t s pid =
  if pid < 0 || pid >= t.nprocs then out_of_range t pid;
  s.s_active <- t.active;
  save_slot t s pid

let snapshot t =
  let n = t.nprocs in
  let s =
    { s_active = 0; s_status = Array.make n Runnable;
      s_region = Array.make n Event.Remainder; s_steps = Array.make n 0;
      s_calls = Array.make n 0; s_started = Array.make n false;
      s_stamp = Array.make n 0; s_failed = Array.make n [] }
  in
  snapshot_into t s;
  s

(* Equal stamps mean the process was not touched since the snapshot: its
   suspension is still the live, unconsumed one.  Otherwise it belongs to
   the abandoned branch: discontinue it, so its fiber stack goes back to
   the runtime now rather than at some later major GC, and rebuild lazily
   at the next [step]. *)
let restore_slot t snap i =
  let p = t.procs.(i) in
  if p.stamp <> snap.s_stamp.(i) then begin
    discontinue_susp p.susp;
    p.status <- snap.s_status.(i);
    p.region <- snap.s_region.(i);
    p.steps <- snap.s_steps.(i);
    p.calls <- snap.s_calls.(i);
    p.started <- snap.s_started.(i);
    p.stamp <- snap.s_stamp.(i);
    p.failed <- snap.s_failed.(i);
    p.susp <- parked
  end

let check_undo t =
  if t.replay = None then
    invalid_arg "Scheduler.restore: create with ~oracle to enable undo"

let restore t snap =
  check_undo t;
  t.active <- snap.s_active;
  for i = 0 to t.nprocs - 1 do
    restore_slot t snap i
  done

let restore_pid t snap pid =
  check_undo t;
  t.active <- snap.s_active;
  restore_slot t snap pid

let dispose t =
  Array.iter
    (fun p ->
      let s = p.susp in
      if not (is_parked s) then begin
        p.susp <- parked;
        discontinue_susp s
      end)
    t.procs
