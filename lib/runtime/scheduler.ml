type status = Runnable | Halted | Crashed | Errored of exn

type pstate = {
  pid : int;
  thunk : unit -> unit;
  mutable susp : Proc.suspension option;
      (* None when not yet started, or when the live continuation was
         invalidated by [restore] (rebuilt lazily at the next [step]) *)
  mutable status : status;
  mutable region : Event.region;
  mutable steps : int;
  mutable calls : int;
      (* access-or-pause effects answered since the last (re)start; pins
         the suspension point for observation replay *)
  mutable started : bool;
  mutable version : int;  (* clock stamp of the last mutation *)
}

type t = {
  cursor : Memory.cursor;  (* the arena's; answers replayed calls in [rebuild] *)
  trace : Trace.t;
  procs : pstate array;
  mutable active : int;  (* processes still Runnable *)
  mutable clock : int;
  oracle : (int -> Event.access_kind list) option;
      (* per-pid access kinds observed since its last (re)start, oldest
         first — the answers needed to rebuild an invalidated suspension *)
  mutable replay_safe : bool;
      (* false once a process catches a register-op exception and keeps
         going: that answer is not in the trace, so rebuilds would
         diverge.  Checked by the incremental explorer. *)
}

exception Replay_mismatch of string

let create ?oracle ~memory ~trace thunks =
  let procs =
    Array.mapi
      (fun pid thunk ->
        { pid; thunk; susp = None; status = Runnable;
          region = Event.Remainder; steps = 0; calls = 0; started = false;
          version = 0 })
      thunks
  in
  { cursor = Memory.cursor memory; trace; procs; active = Array.length procs;
    clock = 0; oracle; replay_safe = true }

let nprocs t = Array.length t.procs
let status t pid = t.procs.(pid).status
let region t pid = t.procs.(pid).region
let steps_taken t pid = t.procs.(pid).steps
let started t pid = t.procs.(pid).started
let replay_safe t = t.replay_safe

let runnable t =
  let acc = ref [] in
  for pid = Array.length t.procs - 1 downto 0 do
    if t.procs.(pid).status = Runnable then acc := pid :: !acc
  done;
  !acc

let all_quiescent t = t.active = 0

type step_result = Progress | Finished | Not_runnable

let record t p body = ignore (Trace.record t.trace ~pid:p.pid body)

let bump t p =
  t.clock <- t.clock + 1;
  p.version <- t.clock

let finish t p outcome =
  t.active <- t.active - 1;
  (match outcome with
  | `Halted ->
    p.status <- Halted;
    p.region <- Event.Halted;
    record t p (Event.Region_change Event.Halted)
  | `Errored e -> p.status <- Errored e);
  Finished

let discontinue_susp s =
  match s with
  | Proc.Done | Proc.Failed _ -> ()
  | Proc.Read (_, k) ->
    (try ignore (Effect.Deep.discontinue k Proc.Crashed) with _ -> ())
  | Proc.Write (_, _, k) ->
    (try ignore (Effect.Deep.discontinue k Proc.Crashed) with _ -> ())
  | Proc.Write_field (_, _, _, _, k) ->
    (try ignore (Effect.Deep.discontinue k Proc.Crashed) with _ -> ())
  | Proc.Xchg (_, _, k) ->
    (try ignore (Effect.Deep.discontinue k Proc.Crashed) with _ -> ())
  | Proc.Cas (_, _, _, k) ->
    (try ignore (Effect.Deep.discontinue k Proc.Crashed) with _ -> ())
  | Proc.Bit_op (_, _, k) ->
    (try ignore (Effect.Deep.discontinue k Proc.Crashed) with _ -> ())
  | Proc.Region (_, k) ->
    (try ignore (Effect.Deep.discontinue k Proc.Crashed) with _ -> ())
  | Proc.Pause k ->
    (try ignore (Effect.Deep.discontinue k Proc.Crashed) with _ -> ())
  | Proc.Sleep (_, k) ->
    (try ignore (Effect.Deep.discontinue k Proc.Crashed) with _ -> ())

(* Reconstruct the suspension of a process whose continuation was
   invalidated by [restore].  One-shot continuations cannot be cloned, so
   we restart the thunk and replay its (deterministic) prefix until
   exactly [p.calls] access-or-pause calls have been answered.  The
   answers sit on the arena's replay cursor, where {!Sim_mem}'s
   operations take them without performing an effect; the only effects
   that reach [drive] are region changes (free, already recorded before
   the checkpoint, so absorbed silently), sleeps, the first call past
   the prefix (the suspension we want), and a call the recording cannot
   answer — its kind does not match or the list ran out — which [drive]
   reports as {!Replay_mismatch}. *)
let rebuild t p =
  let oracle =
    match t.oracle with
    | Some f -> f
    | None ->
      invalid_arg
        "Scheduler.rebuild: no observation oracle (create with ~oracle \
         before using snapshot/restore)"
  in
  let cur = t.cursor in
  let mismatch s what =
    ignore (Memory.replay_stop cur);
    discontinue_susp s;
    raise (Replay_mismatch (Printf.sprintf "pid %d: %s" p.pid what))
  in
  let rec drive s =
    match s with
    | Proc.Region (_, k) -> drive (Effect.Deep.continue k ())
    | _ when not (Memory.replaying cur) -> s
    | Proc.Sleep (_, k) ->
      Memory.replay_skip cur;
      drive (Effect.Deep.continue k ())
    | Proc.Done | Proc.Failed _ -> mismatch s "process terminated early"
    | _ -> (
      match Memory.replay_pending cur with
      | [] -> mismatch s "observation list exhausted"
      | _ :: _ -> mismatch s "recorded observation is of another kind")
  in
  Memory.replay_start cur ~calls:p.calls (oracle p.pid);
  let s = drive (Proc.start p.thunk) in
  if not (Memory.replay_stop cur) then
    mismatch s "unconsumed observations after replay";
  s

(* Advance [p] until one shared access has been performed (absorbing free
   region changes), or until a pause / completion. *)
let step t pid =
  let p = t.procs.(pid) in
  if p.status <> Runnable then Not_runnable
  else begin
    let current =
      match p.susp with
      | Some s -> s
      | None ->
        let s =
          if p.started then rebuild t p
          else begin
            p.started <- true;
            Proc.start p.thunk
          end
        in
        p.susp <- Some s;
        s
    in
    bump t p;
    (* Store the post-access suspension.  Region changes are free local
       events: absorb them eagerly so a process's protocol region is
       always current at the end of the step that made it true (deferring
       them would create phantom occupancy windows that skew the §2.2
       fragment measures).  Completion is also finalized eagerly so
       quiescence is observable without another step. *)
    let rec settle s =
      p.susp <- Some s;
      match s with
      | Proc.Done -> finish t p `Halted
      | Proc.Failed e -> finish t p (`Errored e)
      | Proc.Region (r, k) ->
        p.region <- r;
        record t p (Event.Region_change r);
        settle (Effect.Deep.continue k ())
      | Proc.Read _ | Proc.Write _ | Proc.Write_field _ | Proc.Xchg _
      | Proc.Cas _ | Proc.Bit_op _ | Proc.Pause _ | Proc.Sleep _ ->
        Progress
    in
    let rec go s =
      match s with
      | Proc.Done -> finish t p `Halted
      | Proc.Failed e -> finish t p (`Errored e)
      | Proc.Region (r, k) ->
        p.region <- r;
        record t p (Event.Region_change r);
        let s = Effect.Deep.continue k () in
        p.susp <- Some s;
        go s
      | Proc.Pause k | Proc.Sleep (_, k) ->
        (* The round-robin scheduler has no clock: a sleep degrades to a
           single pause (one turn of the picker). *)
        p.calls <- p.calls + 1;
        settle (Effect.Deep.continue k ())
      | Proc.Read (r, k) -> begin
        match Register.read r with
        | v ->
          record t p (Event.Access (r, Event.A_read v));
          p.steps <- p.steps + 1;
          p.calls <- p.calls + 1;
          settle (Effect.Deep.continue k v)
        | exception e -> abort k e
      end
      | Proc.Write (r, v, k) -> begin
        match Register.write r v with
        | () ->
          record t p (Event.Access (r, Event.A_write v));
          p.steps <- p.steps + 1;
          p.calls <- p.calls + 1;
          settle (Effect.Deep.continue k ())
        | exception e -> abort k e
      end
      | Proc.Write_field (r, index, width, v, k) -> begin
        match Register.write_field r ~index ~width v with
        | () ->
          record t p (Event.Access (r, Event.A_field (index, width, v)));
          p.steps <- p.steps + 1;
          p.calls <- p.calls + 1;
          settle (Effect.Deep.continue k ())
        | exception e -> abort k e
      end
      | Proc.Xchg (r, v, k) -> begin
        match Register.fetch_and_store r v with
        | old ->
          record t p (Event.Access (r, Event.A_xchg (v, old)));
          p.steps <- p.steps + 1;
          p.calls <- p.calls + 1;
          settle (Effect.Deep.continue k old)
        | exception e -> abort k e
      end
      | Proc.Cas (r, expected, v, k) -> begin
        match Register.compare_and_set r ~expected v with
        | success ->
          record t p (Event.Access (r, Event.A_cas (expected, v, success)));
          p.steps <- p.steps + 1;
          p.calls <- p.calls + 1;
          settle (Effect.Deep.continue k success)
        | exception e -> abort k e
      end
      | Proc.Bit_op (r, op, k) -> begin
        match Register.bit_op r op with
        | ret ->
          record t p (Event.Access (r, Event.A_bit (op, ret)));
          p.steps <- p.steps + 1;
          p.calls <- p.calls + 1;
          settle (Effect.Deep.continue k ret)
        | exception e -> abort k e
      end
    and abort : type a. (a, Proc.suspension) Effect.Deep.continuation -> exn
        -> step_result =
     fun k e ->
      (* A semantic violation (model/width): unwind the process with the
         offending exception so its continuation is consumed, then record
         the error. *)
      let s = try Effect.Deep.discontinue k e with e' -> Proc.Failed e' in
      p.susp <- Some s;
      match s with
      | Proc.Failed e -> finish t p (`Errored e)
      | Proc.Done -> finish t p `Halted
      | Proc.Read _ | Proc.Write _ | Proc.Write_field _ | Proc.Xchg _
      | Proc.Cas _ | Proc.Bit_op _ | Proc.Region _ | Proc.Pause _
      | Proc.Sleep _ ->
        (* The process caught the exception and kept going — that answer
           is invisible to observation replay, so rebuilds of this
           process would diverge. *)
        t.replay_safe <- false;
        go s
    in
    go current
  end

let crash t pid =
  let p = t.procs.(pid) in
  if p.status = Runnable then begin
    (* A [None] suspension on a started process means its continuation
       was invalidated by [restore]; there is nothing live to unwind. *)
    (match p.susp with Some s -> discontinue_susp s | None -> ());
    p.susp <- None;
    t.active <- t.active - 1;
    p.status <- Crashed;
    bump t p;
    record t p Event.Crash
  end

let recover t pid =
  let p = t.procs.(pid) in
  if p.status = Crashed then begin
    (* Crash–recovery model: local state is lost (the consumed suspension
       is dropped, so the next [step] re-invokes the process thunk from
       the top), shared memory persists untouched.  The restarted process
       begins in Remainder, like a freshly created one. *)
    p.susp <- None;
    p.status <- Runnable;
    p.region <- Event.Remainder;
    p.calls <- 0;
    p.started <- false;
    t.active <- t.active + 1;
    bump t p;
    record t p Event.Recover
  end

type psnap = {
  s_status : status;
  s_region : Event.region;
  s_steps : int;
  s_calls : int;
  s_started : bool;
  s_version : int;
}

type snap = { s_active : int; s_procs : psnap array }

let snapshot t =
  { s_active = t.active;
    s_procs =
      Array.map
        (fun p ->
          { s_status = p.status; s_region = p.region; s_steps = p.steps;
            s_calls = p.calls; s_started = p.started; s_version = p.version })
        t.procs }

let restore t snap =
  if t.oracle = None then
    invalid_arg "Scheduler.restore: create with ~oracle to enable undo";
  t.active <- snap.s_active;
  Array.iteri
    (fun i ps ->
      let p = t.procs.(i) in
      (* Equal version stamps mean the process was not touched since the
         snapshot: its suspension is still the live, unconsumed one.
         Otherwise it belongs to the abandoned branch: discontinue it, so
         its fiber stack goes back to the runtime now rather than at some
         later major GC, and rebuild lazily at the next [step]. *)
      if p.version <> ps.s_version then begin
        (match p.susp with Some s -> discontinue_susp s | None -> ());
        p.status <- ps.s_status;
        p.region <- ps.s_region;
        p.steps <- ps.s_steps;
        p.calls <- ps.s_calls;
        p.started <- ps.s_started;
        p.version <- ps.s_version;
        p.susp <- None
      end)
    snap.s_procs

let dispose t =
  Array.iter
    (fun p ->
      match p.susp with
      | Some s ->
        p.susp <- None;
        discontinue_susp s
      | None -> ())
    t.procs
