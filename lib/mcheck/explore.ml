open Cfc_runtime
module Inc = Cfc_core.Spec.Inc

type config = { max_depth : int; max_steps_per_proc : int; max_states : int }

let default_config =
  { max_depth = 60; max_steps_per_proc = 25; max_states = 500_000 }

type stats = {
  runs : int;
  states : int;
  pruned_dedup : int;
  pruned_sym : int;
  pruned_por : int;
  fp_collisions : int;
  seen_pop : int;
  seen_cap : int;
  truncated : bool;
}

type engine = Incremental | Replay

type action = Step of int | Crash of int | Recover of int

let pp_action ppf = function
  | Step pid -> Format.fprintf ppf "step p%d" pid
  | Crash pid -> Format.fprintf ppf "crash p%d" pid
  | Recover pid -> Format.fprintf ppf "recover p%d" pid

type 'schedule gen_result =
  | Ok of stats
  | Violation of {
      schedule : 'schedule;
      violation : Cfc_core.Spec.violation;
      stats : stats;
    }

type result = int list gen_result
type fault_result = action list gen_result

(* Execute one action schedule from scratch. *)
let exec_actions ~system actions =
  let memory, procs = system () in
  let trace = Trace.create () in
  let sched = Scheduler.create ~memory ~trace procs in
  List.iter
    (function
      | Step pid -> ignore (Scheduler.step sched pid)
      | Crash pid -> Scheduler.crash sched pid
      | Recover pid -> Scheduler.recover sched pid)
    actions;
  (memory, sched, trace)

let outcome_of (memory, sched, trace) =
  let total_steps =
    List.init (Scheduler.nprocs sched) (Scheduler.steps_taken sched)
    |> List.fold_left ( + ) 0
  in
  let stopped =
    if Scheduler.all_quiescent sched then Runner.Quiescent
    else Runner.Picker_done
  in
  {
    Runner.memory;
    trace;
    scheduler = sched;
    completed = (stopped = Runner.Quiescent);
    stopped;
    total_steps;
  }

let replay_actions ~system ~schedule =
  outcome_of (exec_actions ~system schedule)

let replay ~system ~schedule =
  replay_actions ~system ~schedule:(List.map (fun pid -> Step pid) schedule)

exception Found of action list * Cfc_core.Spec.violation
exception Budget

exception Fallback
(* Raised when a process catches a register-op exception and keeps going:
   observation replay cannot rebuild such a process, so the incremental
   engine bails out and the exploration re-runs on the replay engine. *)

(* The memo table: compact structural keys ({!State_key.t} plus the crash
   budget already used), hashed deeply.  Pre-sized from the state budget
   (or the caller's [seen_hint]) so the hot loop never pays for
   resizes. *)
module Tbl = Hashtbl.Make (struct
  type t = State_key.t * int

  let equal ((ka, ua) : t) ((kb, ub) : t) = ua = ub && State_key.equal ka kb
  let hash ((k, u) : t) = State_key.hash k + u
end)

(* Pre-size the seen set for the worst case: the search stops at
   [max_states] entries, so paying the (few-MB) bucket array up front
   buys zero rehashes mid-search.  An earlier version clamped this at
   65 536 and rehashed the table repeatedly on big sweeps. *)
let tbl_size ?hint config =
  match hint with
  | Some n when n > 0 -> max 64 (min n config.max_states)
  | Some _ | None -> max 64 config.max_states

type counters = {
  mutable runs : int;
  mutable states : int;
  mutable pruned_dedup : int;
  mutable pruned_sym : int;
  mutable pruned_por : int;
  mutable fp_collisions : int;
  mutable seen_pop : int;
  mutable seen_cap : int;
  mutable cutoffs : int;
      (* depth/step-budget cutoffs below the current node — a subtree is
         marked fully explored (sharable across branches) only when this
         did not move while expanding it *)
  mutable truncated : bool;
}

let new_counters () =
  { runs = 0; states = 0; pruned_dedup = 0; pruned_sym = 0; pruned_por = 0;
    fp_collisions = 0; seen_pop = 0; seen_cap = 0; cutoffs = 0;
    truncated = false }

let cutoff c =
  c.truncated <- true;
  c.cutoffs <- c.cutoffs + 1

let stats_of c : stats =
  { runs = c.runs; states = c.states; pruned_dedup = c.pruned_dedup;
    pruned_sym = c.pruned_sym; pruned_por = c.pruned_por;
    fp_collisions = c.fp_collisions; seen_pop = c.seen_pop;
    seen_cap = c.seen_cap; truncated = c.truncated }

(* ------------------------------------------------------------------ *)
(* The seen set.  One abstraction covers the four storage shapes the
   engines need: exact keys or 64-bit×2 fingerprints (compact mode),
   private to one search or shared across domain-parallel branches
   (sharded, mutex-striped).

   Every stored state carries one {!Seen.entry}:

   - [e_sleep]/[e_steps] — what the stored exploration assumed, for the
     partial-order reduction's coverage check ({!Seen.covers}): a
     revisit is pruned only if the stored exploration slept on no more
     transitions and had at least as much per-process step budget.
     Without reduction they are never read (presence alone prunes).
   - [e_open] — in-progress expansions of the state on some DFS stack:
     the reduction's cycle proviso (a singleton ample set must not step
     onto a state still being expanded).
   - [e_done]/[e_branch] — cross-branch prune gating in shared mode: a
     branch may prune on another branch's entry only once that branch
     {e completed} the state's subtree without hitting any bound
     ([e_done]); an in-progress or bound-cut foreign entry is adopted
     and re-explored instead.  Completion-gating is what keeps the
     verdict and counterexample schedule deterministic and identical to
     the sequential search's: a pruned-on foreign subtree is fully
     explored and violation-free, so no branch's DFS can have its
     verdict changed by another branch's timing — only its stats.
   - [e_fp2] — the second fingerprint lane in compact mode: a first-lane
     hit with a second-lane mismatch is a {e detected} collision
     (counted in [fp_collisions], explored without storing — sound,
     merely slower); an undetected collision needs both 62-bit lanes to
     agree at once. *)
module Seen = struct
  type entry = {
    mutable e_sleep : int;
    mutable e_steps : int array;
    mutable e_open : int;
    mutable e_done : bool;
    mutable e_branch : int;
    e_fp2 : int;
  }

  (* Shared entry for the unreduced single-search fast path, where only
     presence matters; never mutated. *)
  let dummy =
    { e_sleep = 0; e_steps = [||]; e_open = 0; e_done = false;
      e_branch = 0; e_fp2 = 0 }

  type store = Exact of entry Tbl.t | Compact of (int, entry) Hashtbl.t

  type shard = { sh_lock : Mutex.t; sh_store : store }

  type t = Local of store | Sharded of shard array

  (* Handle on an entered state: the entry plus the lock protecting it
     (shared mode only). *)
  type tok = { t_entry : entry; t_lock : Mutex.t option }

  let nshards = 64

  let mk_store ~compact cap =
    if compact then Compact (Hashtbl.create cap) else Exact (Tbl.create cap)

  let create ~compact ~shared cap =
    if shared then
      Sharded
        (Array.init nshards (fun _ ->
             { sh_lock = Mutex.create ();
               sh_store = mk_store ~compact (max 16 (cap / nshards)) }))
    else Local (mk_store ~compact cap)

  let store_pop = function
    | Exact t -> Tbl.length t
    | Compact t -> Hashtbl.length t

  let population = function
    | Local s -> store_pop s
    | Sharded shards ->
      Array.fold_left (fun acc sh -> acc + store_pop sh.sh_store) 0 shards

  let fp_of ((key, used) : State_key.t * int) = State_key.fingerprint key used

  let shard_of shards ((k, u) : State_key.t * int) =
    shards.(((State_key.hash k + u) land max_int) mod nshards)

  let covers e ~sleep ~steps =
    e.e_sleep land lnot sleep = 0
    && (let ok = ref true in
        Array.iteri (fun i s -> if s < e.e_steps.(i) then ok := false) steps;
        !ok)

  let fresh ~sleep ~steps ~branch ~fp2 =
    { e_sleep = sleep; e_steps = steps; e_open = 0; e_done = false;
      e_branch = branch; e_fp2 = fp2 }

  (* [None]: pruned (the matching counter has been bumped).  [Some e]:
     proceed and expand; [e]'s payload has been (re)set to this visit's
     sleep/steps. *)
  let enter_store store ~c ~por ~shared ~branch ~rewritten ~sleep ~steps key
      =
    let prune () =
      if rewritten then c.pruned_sym <- c.pruned_sym + 1
      else c.pruned_dedup <- c.pruned_dedup + 1;
      None
    in
    let decide e =
      let mine = (not shared) || e.e_done || e.e_branch = branch in
      if mine && ((not por) || covers e ~sleep ~steps) then prune ()
      else begin
        e.e_sleep <- sleep;
        e.e_steps <- steps;
        e.e_branch <- branch;
        Some e
      end
    in
    match store with
    | Exact tbl when (not por) && not shared ->
      (* membership test and insert in one hashing pass: [replace] on a
         present key leaves the size unchanged *)
      let population = Tbl.length tbl in
      Tbl.replace tbl key dummy;
      if Tbl.length tbl = population then prune () else Some dummy
    | Exact tbl -> (
      match Tbl.find_opt tbl key with
      | Some e -> decide e
      | None ->
        let e = fresh ~sleep ~steps ~branch ~fp2:0 in
        Tbl.add tbl key e;
        Some e)
    | Compact tbl -> (
      let fp1, fp2 = fp_of key in
      match Hashtbl.find_opt tbl fp1 with
      | Some e when e.e_fp2 <> fp2 ->
        c.fp_collisions <- c.fp_collisions + 1;
        Some (fresh ~sleep ~steps ~branch ~fp2)
      | Some e -> decide e
      | None ->
        let e = fresh ~sleep ~steps ~branch ~fp2 in
        Hashtbl.add tbl fp1 e;
        Some e)

  let enter seen ~c ~por ~branch ~rewritten ~sleep ~steps key =
    match seen with
    | Local store -> (
      match
        enter_store store ~c ~por ~shared:false ~branch ~rewritten ~sleep
          ~steps key
      with
      | None -> None
      | Some e -> Some { t_entry = e; t_lock = None })
    | Sharded shards -> (
      let sh = shard_of shards key in
      Mutex.lock sh.sh_lock;
      let r =
        enter_store sh.sh_store ~c ~por ~shared:true ~branch ~rewritten
          ~sleep ~steps key
      in
      Mutex.unlock sh.sh_lock;
      match r with
      | None -> None
      | Some e -> Some { t_entry = e; t_lock = Some sh.sh_lock })

  let with_lock tok f =
    match tok.t_lock with
    | None -> f tok.t_entry
    | Some l ->
      Mutex.lock l;
      let r = f tok.t_entry in
      Mutex.unlock l;
      r

  let open_incr tok = with_lock tok (fun e -> e.e_open <- e.e_open + 1)
  let open_decr tok = with_lock tok (fun e -> e.e_open <- e.e_open - 1)

  (* Mark the state's subtree fully explored — only meaningful (and only
     paid for) in shared mode, where it gates cross-branch pruning. *)
  let mark_done tok =
    match tok.t_lock with
    | None -> ()
    | Some l ->
      Mutex.lock l;
      tok.t_entry.e_done <- true;
      Mutex.unlock l

  let find_store store key =
    match store with
    | Exact tbl -> Tbl.find_opt tbl key
    | Compact tbl -> (
      let fp1, fp2 = fp_of key in
      match Hashtbl.find_opt tbl fp1 with
      | Some e when e.e_fp2 = fp2 -> Some e
      | Some _ | None -> None)

  let is_open seen key =
    match seen with
    | Local store -> (
      match find_store store key with Some e -> e.e_open > 0 | None -> false)
    | Sharded shards ->
      let sh = shard_of shards key in
      Mutex.lock sh.sh_lock;
      let r =
        match find_store sh.sh_store key with
        | Some e -> e.e_open > 0
        | None -> false
      in
      Mutex.unlock sh.sh_lock;
      r

  (* Seed the root state of a branch-parallel search: the root node is
     handled by the coordinator (it is the common prefix of every
     branch), so every branch may prune schedules looping back to it —
     exactly as the sequential search does with its root entry. *)
  let seed seen ~nprocs ~sleep key =
    let e =
      { e_sleep = sleep; e_steps = Array.make nprocs 0; e_open = 0;
        e_done = true; e_branch = -1; e_fp2 = 0 }
    in
    match seen with
    | Local store -> (
      match store with
      | Exact tbl -> Tbl.replace tbl key e
      | Compact tbl ->
        let fp1, fp2 = fp_of key in
        Hashtbl.replace tbl fp1 { e with e_fp2 = fp2 })
    | Sharded shards -> (
      let sh = shard_of shards key in
      Mutex.lock sh.sh_lock;
      (match sh.sh_store with
      | Exact tbl -> Tbl.replace tbl key e
      | Compact tbl ->
        let fp1, fp2 = fp_of key in
        Hashtbl.replace tbl fp1 { e with e_fp2 = fp2 });
      Mutex.unlock sh.sh_lock)
end

(* Scheduler choices offered at the current state, in the canonical order
   shared by both engines: steps (runnable pids ascending, optionally
   restricted to the lowest fresh pid, within the step budget), then
   crashes, then recoveries.  Built back-to-front by consing so the hot
   path allocates exactly the result list. *)
let candidates_of sched ~config ~fresh_only ~pairs ~nprocs ~used =
  let acc = ref [] in
  if pairs > 0 then begin
    for pid = nprocs - 1 downto 0 do
      if Scheduler.status sched pid = Scheduler.Crashed then
        acc := Recover pid :: !acc
    done;
    (* Crashing a process that has not yet taken a step reaches, after its
       recovery, a state indistinguishable from never crashing it — skip
       those branches outright. *)
    if used < pairs then
      for pid = nprocs - 1 downto 0 do
        if
          Scheduler.status sched pid = Scheduler.Runnable
          && Scheduler.started sched pid
        then acc := Crash pid :: !acc
      done
  end;
  if fresh_only then begin
    (* Candidate-level symmetry pruning, sound for literally identical
       (anonymous) processes: schedules that differ only in which
       not-yet-started process goes first are isomorphic under a pid
       permutation, so only the lowest-numbered fresh process needs
       exploring — ordered after the started ones. *)
    let fresh = ref (-1) in
    for pid = nprocs - 1 downto 0 do
      if
        Scheduler.status sched pid = Scheduler.Runnable
        && Scheduler.steps_taken sched pid < config.max_steps_per_proc
        && not (Scheduler.started sched pid)
      then fresh := pid
    done;
    if !fresh >= 0 then acc := Step !fresh :: !acc;
    for pid = nprocs - 1 downto 0 do
      if
        Scheduler.status sched pid = Scheduler.Runnable
        && Scheduler.steps_taken sched pid < config.max_steps_per_proc
        && Scheduler.started sched pid
      then acc := Step pid :: !acc
    done
  end
  else
    for pid = nprocs - 1 downto 0 do
      if
        Scheduler.status sched pid = Scheduler.Runnable
        && Scheduler.steps_taken sched pid < config.max_steps_per_proc
      then acc := Step pid :: !acc
    done;
  !acc

let bump_used used a = match a with Crash _ -> used + 1 | Step _ | Recover _ -> used

(* Candidate-level fresh-pid pruning applies only to a pure (identical
   processes) symmetry group and is kept off under POR, whose sleep-set
   bookkeeping assumes the full candidate list. *)
let fresh_only_of ~sym ~ind =
  (match sym with Some s -> Symmetry.is_pure s | None -> false)
  && ind = None

(* ------------------------------------------------------------------ *)
(* The replay engine: dscheck-style re-execution of the whole schedule
   prefix at every node.  Kept as the reference implementation (the
   equivalence tests pin the incremental engine to it) and as the
   fallback for replay-unsafe processes.  Never partial-order reduced
   and always exact-keyed; the symmetry canonicalisation does apply, so
   reduced verdicts can be cross-checked on both engines. *)

let run_replay ~config ?seen_hint ?observe ~sym ~pairs ~system ~check () =
  let cap = tbl_size ?hint:seen_hint config in
  let seen : unit Tbl.t = Tbl.create cap in
  let c = new_counters () in
  c.seen_cap <- cap;
  let fresh_only = fresh_only_of ~sym ~ind:None in
  (* The process count is a property of the system shape, not of any
     particular node: hoist the pid list out of the per-node work. *)
  let nprocs = Array.length (snd (system ())) in
  let pids = List.init nprocs Fun.id in
  let rec expand schedule depth used =
    if c.states >= config.max_states then begin
      c.truncated <- true;
      raise Budget
    end;
    c.states <- c.states + 1;
    (* [schedule] is kept reversed (most recent action first). *)
    let memory, sched, trace = exec_actions ~system (List.rev schedule) in
    (* Re-executing a prefix replays its accesses; the observer sees each
       one once per node that extends it.  Consumers dedup. *)
    (match observe with
    | None -> ()
    | Some f ->
      for i = 0 to Trace.length trace - 1 do
        let e = Trace.get trace i in
        match e.Event.body with
        | Event.Access (r, k) -> f ~pid:e.Event.pid ~reg:r ~kind:k
        | Event.Crash | Event.Recover | Event.Region_change _ -> ()
      done);
    (* Process errors (assertion failures inside algorithms, the critical
       section witness, model violations) are violations in themselves. *)
    List.iter
      (fun pid ->
        match Scheduler.status sched pid with
        | Scheduler.Errored e ->
          raise
            (Found
               ( List.rev schedule,
                 {
                   Cfc_core.Spec.at = Trace.length trace;
                   pids = [ pid ];
                   what = "process error: " ^ Printexc.to_string e;
                 } ))
        | Scheduler.Runnable | Scheduler.Halted | Scheduler.Crashed -> ())
      pids;
    (match check trace ~nprocs with
    | Some v -> raise (Found (List.rev schedule, v))
    | None -> ());
    let raw = State_key.of_system memory sched trace in
    let ckey, rewritten =
      match sym with
      | None -> (raw, false)
      | Some s ->
        let k, pi = Symmetry.canon s raw in
        (k, pi <> None)
    in
    let key = (ckey, used) in
    if Tbl.mem seen key then
      if rewritten then c.pruned_sym <- c.pruned_sym + 1
      else c.pruned_dedup <- c.pruned_dedup + 1
    else begin
      Tbl.add seen key ();
      let candidates =
        candidates_of sched ~config ~fresh_only ~pairs ~nprocs ~used
      in
      if candidates = [] then begin
        if not (Scheduler.all_quiescent sched) then c.truncated <- true;
        c.runs <- c.runs + 1
      end
      else if depth >= config.max_depth then begin
        c.truncated <- true;
        c.runs <- c.runs + 1
      end
      else
        List.iter
          (fun a -> expand (a :: schedule) (depth + 1) (bump_used used a))
          candidates
    end
  in
  let finish () = c.seen_pop <- Tbl.length seen in
  match expand [] 0 0 with
  | () ->
    finish ();
    Ok (stats_of c)
  | exception Budget ->
    finish ();
    Ok (stats_of c)
  | exception Found (schedule, violation) ->
    finish ();
    Violation { schedule; violation; stats = stats_of c }

(* ------------------------------------------------------------------ *)
(* The incremental engine: one live (memory, scheduler, trace) per search
   branch, extended by a single action per node and rolled back by
   checkpoint/undo between siblings.  Checkpoints are O(nprocs +
   registers) scalars — continuations are one-shot and cannot be cloned,
   so a process whose continuation was consumed by an abandoned sibling
   is rebuilt lazily by the scheduler from its recorded observations
   (exactly the [obs] lists maintained here, which double as the state
   key's per-process component). *)

(* Partial-order reduction state, present only when an independence hint
   is active.  [p_canon]/[p_meta] are the canonical observation lists the
   memo key uses instead of the raw ones: completed busy-wait iterations
   are dropped (see [drop_reentry]), so states differing only in how long
   a process spun before the loop let it through share a key.  This leans
   on the same memoryless-spin reading of busy-wait loops the analyzer's
   cycle cut already assumes — a spin iteration that kept the process in
   the loop left no trace in its local state (DESIGN.md §2 records the
   assumption).  The raw [i_obs] lists are untouched — they feed the
   scheduler's rebuild oracle and must remain the exact history. *)
type por_state = {
  p_tr : Independence.tracker;
  p_canon : State_key.cell list array;  (* per pid, newest first *)
  p_meta : (int * bool) list array;
      (* parallel to [p_canon]: (hash after this cell, cycle-member) *)
}

type inc_state = {
  i_config : config;
  i_fresh_only : bool;
  i_sym : Symmetry.t option;
  i_pairs : int;
  i_branch : int;  (* root-branch index in parallel mode, else 0 *)
  i_memory : Memory.t;
  i_sched : Scheduler.t;
  i_trace : Trace.t;
  i_obs : State_key.cell list array;  (* per pid, newest first *)
  i_obs_hash : int array;  (* per pid, rolling State_key.cell_hash fold *)
  i_nprocs : int;
  i_inc : Inc.run;
  i_seen : Seen.t;
  i_c : counters;
  i_por : por_state option;
  i_observe :
    (pid:int -> reg:Register.t -> kind:Event.access_kind -> unit) option;
}

type checkpoint = {
  ck_sched : Scheduler.snap;
  ck_regvals : int array;
  ck_tracelen : int;
  ck_obs : State_key.cell list array;
  ck_obs_hash : int array;
  ck_inc : unit -> unit;
  ck_por :
    (State_key.cell list array * (int * bool) list array * Independence.snap)
    option;
}

let make_inc_state ~config ~sym ~pairs ~branch ~system ~inc ~ind ~seen ~c
    ~observe =
  let memory, procs = system () in
  let trace = Trace.create () in
  let obs = Array.make (Array.length procs) [] in
  let oracle pid = List.rev_map (fun cl -> cl.State_key.kind) obs.(pid) in
  let sched = Scheduler.create ~oracle ~memory ~trace procs in
  let nprocs = Scheduler.nprocs sched in
  let por =
    match ind with
    | None -> None
    | Some t ->
      Some
        { p_tr = Independence.track t ~nprocs;
          p_canon = Array.make nprocs [];
          p_meta = Array.make nprocs [] }
  in
  { i_config = config; i_fresh_only = fresh_only_of ~sym ~ind; i_sym = sym;
    i_pairs = pairs; i_branch = branch; i_memory = memory; i_sched = sched;
    i_trace = trace; i_obs = obs;
    i_obs_hash = Array.make (Array.length procs) 0; i_nprocs = nprocs;
    i_inc = Inc.start inc ~nprocs; i_seen = seen; i_c = c; i_por = por;
    i_observe = observe }

(* ---- spin-history canonicalization (lists newest first) ---- *)

(* A busy-wait access re-entering its cycle at a (register, op class) the
   trailing run of cycle cells already contains means the run back to that
   cell was one completed spin iteration: the guard held, the process went
   around, and (memoryless-spin, DESIGN.md §2) its local state is as if
   the iteration never happened.  Drop the iteration from the canonical
   observations before appending the new cell.  Values are deliberately
   ignored — whatever the wasted iteration read only fed the guard, and
   any effect a spin-loop write had on shared state is carried by the
   register values in the key.  The scan stops at the first non-cycle
   cell, so loop exits and later re-entries (harness rounds) never
   collapse across. *)
let drop_reentry obs meta ~reg ~cls =
  let rec scan obs meta =
    match (obs, meta) with
    | cl :: obs', (_, true) :: meta' ->
      if
        cl.State_key.reg = reg
        && String.equal (Independence.class_of_kind cl.State_key.kind) cls
      then Some (obs', meta')
      else scan obs' meta'
    | _, _ -> None
  in
  scan obs meta

(* Apply one action to the live system.  Returns the shared access the
   step performed, if any (a step performs at most one; pause steps and
   crash/recover perform none). *)
let apply st a =
  let before = Trace.length st.i_trace in
  (match a with
  | Step pid -> ignore (Scheduler.step st.i_sched pid)
  | Crash pid -> Scheduler.crash st.i_sched pid
  | Recover pid -> Scheduler.recover st.i_sched pid);
  if not (Scheduler.replay_safe st.i_sched) then raise Fallback;
  (* Fold the new events into the per-process observation lists (a crash
     wipes local state, so the observation history restarts). *)
  let access = ref None in
  for i = before to Trace.length st.i_trace - 1 do
    let e = Trace.get st.i_trace i in
    match e.Event.body with
    | Event.Access (r, k) ->
      let pid = e.Event.pid in
      let cl = State_key.cell r k in
      st.i_obs.(pid) <- cl :: st.i_obs.(pid);
      st.i_obs_hash.(pid) <- State_key.cell_hash st.i_obs_hash.(pid) cl;
      access := Some (pid, r, k);
      (match st.i_observe with
      | Some f -> f ~pid ~reg:r ~kind:k
      | None -> ());
      (match st.i_por with
      | None -> ()
      | Some por ->
        Independence.observe por.p_tr ~pid ~reg:r.Register.id ~kind:k;
        let is_cyc =
          Independence.cycle_member por.p_tr ~pid ~reg:r.Register.id ~kind:k
        in
        let obs0, meta0 =
          if is_cyc then
            match
              drop_reentry por.p_canon.(pid) por.p_meta.(pid)
                ~reg:r.Register.id ~cls:(Independence.class_of_kind k)
            with
            | Some om -> om
            | None -> (por.p_canon.(pid), por.p_meta.(pid))
          else (por.p_canon.(pid), por.p_meta.(pid))
        in
        let h = match meta0 with [] -> 0 | (h, _) :: _ -> h in
        por.p_canon.(pid) <- cl :: obs0;
        por.p_meta.(pid) <- (State_key.cell_hash h cl, is_cyc) :: meta0)
    | Event.Crash ->
      st.i_obs.(e.Event.pid) <- [];
      st.i_obs_hash.(e.Event.pid) <- 0
    | Event.Region_change _ | Event.Recover -> ()
  done;
  !access

let save st ~regvals ~tracelen =
  { ck_sched = Scheduler.snapshot st.i_sched;
    ck_regvals = regvals;
    ck_tracelen = tracelen;
    ck_obs = Array.copy st.i_obs;
    ck_obs_hash = Array.copy st.i_obs_hash;
    ck_inc = st.i_inc.Inc.save ();
    ck_por =
      (match st.i_por with
      | None -> None
      | Some por ->
        Some
          ( Array.copy por.p_canon,
            Array.copy por.p_meta,
            Independence.snapshot por.p_tr )) }

let rollback st ck =
  Scheduler.restore st.i_sched ck.ck_sched;
  Memory.restore_values st.i_memory ck.ck_regvals;
  Trace.truncate st.i_trace ck.ck_tracelen;
  Array.blit ck.ck_obs 0 st.i_obs 0 st.i_nprocs;
  Array.blit ck.ck_obs_hash 0 st.i_obs_hash 0 st.i_nprocs;
  ck.ck_inc ();
  match (st.i_por, ck.ck_por) with
  | Some por, Some (canon, meta, snap) ->
    Array.blit canon 0 por.p_canon 0 st.i_nprocs;
    Array.blit meta 0 por.p_meta 0 st.i_nprocs;
    Independence.restore por.p_tr snap
  | _, _ -> ()

let state_key_of st ~regvals ~used =
  let obs, obs_hash =
    match st.i_por with
    | Some por ->
      ( (fun pid -> por.p_canon.(pid)),
        fun pid ->
          match por.p_meta.(pid) with [] -> 0 | (h, _) :: _ -> h )
    | None -> ((fun pid -> st.i_obs.(pid)), fun pid -> st.i_obs_hash.(pid))
  in
  ( { State_key.k_regvals = regvals;
      k_procs =
        Array.init st.i_nprocs (fun pid ->
            { State_key.k_status =
                State_key.status_tag (Scheduler.status st.i_sched pid);
              k_region = Scheduler.region st.i_sched pid;
              k_obs_hash = obs_hash pid;
              k_obs = obs pid }) },
    used )

(* ---- symmetry canonicalisation of memo keys ---- *)

(* A memo key plus how canonicalisation transformed it: [kk_pi] is the
   witness permutation (raw pid [p] sits at canonical slot
   [kk_pi.(p)]), needed to carry the POR payload — sleep sets and step
   vectors are per-pid and must live in the same pid space as the key
   they are stored under. *)
type keyed = {
  kk_key : State_key.t * int;
  kk_rewritten : bool;
  kk_pi : int array option;
}

let canon_key_of st ~regvals ~used =
  let raw = state_key_of st ~regvals ~used in
  match st.i_sym with
  | None -> { kk_key = raw; kk_rewritten = false; kk_pi = None }
  | Some s ->
    let k, u = raw in
    let k', pi = Symmetry.canon s k in
    { kk_key = (k', u); kk_rewritten = pi <> None; kk_pi = pi }

let perm_sleep pi sleep =
  match pi with
  | None -> sleep
  | Some pi ->
    if sleep = 0 then 0
    else begin
      let s = ref 0 in
      Array.iteri
        (fun p slot -> if sleep land (1 lsl p) <> 0 then s := !s lor (1 lsl slot))
        pi;
      !s
    end

let perm_steps pi steps =
  match pi with
  | None -> steps
  | Some pi ->
    let out = Array.make (Array.length steps) 0 in
    Array.iteri (fun p slot -> out.(slot) <- steps.(p)) pi;
    out

(* ---- reduction helpers ---- *)

let steps_vector st = Array.init st.i_nprocs (Scheduler.steps_taken st.i_sched)

(* Which sleeping processes stay asleep across the executed access: those
   whose next step provably commutes with it.  A pause step (no access)
   commutes with everything, and so does the value-aware footprint of an
   access that changed nothing ([before] is the register-value array at
   the parent node).  An unknown next step wakes the sleeper. *)
let filter_sleep st por sleep access ~before =
  if sleep = 0 then 0
  else
    match access with
    | None -> sleep
    | Some (_, r, k) ->
      let changed = Memory.values st.i_memory <> before in
      let afp = Independence.fp_of_access ~changed ~reg:r.Register.id k in
      let s = ref 0 in
      for t = 0 to st.i_nprocs - 1 do
        if sleep land (1 lsl t) <> 0 then
          match Independence.next_fp por.p_tr t with
          | Some nfp when not (Independence.conflict nfp afp) ->
            s := !s lor (1 lsl t)
          | Some _ | None -> ()
      done;
      !s

(* The static side of the singleton-ample check: a process degraded to
   unknown (its accesses stopped matching its graph) is never picked as
   a singleton, preserving "statically unanalyzable ⇒ full expansion". *)
let singleton_prefilter por a =
  match a with
  | Crash _ | Recover _ -> false
  | Step p -> Independence.known por.p_tr p

(* Did the events appended since [from] include a region change?  The
   property checkers consume exactly region changes (protocol regions,
   decisions, halting) — so this is the dynamic visibility of the step
   just applied, checked on the real transition rather than approximated
   statically. *)
let step_visible st ~from =
  let n = Trace.length st.i_trace in
  let rec scan i =
    i < n
    &&
    match (Trace.get st.i_trace i).Event.body with
    | Event.Region_change _ -> true
    | Event.Access _ | Event.Crash | Event.Recover -> scan (i + 1)
  in
  scan from

exception Sub_conflict
exception Sub_budget

(* The dynamic side of the singleton-ample check: a bounded exhaustive
   exploration of the others-only subsystem (every process but [p],
   crash-free — reduction is gated to pairs = 0) from the current state,
   which is the CHILD state s·a of the step under probe.  [Step p] may
   stand alone for the whole ample set only if no access any other
   process can reach without p's help conflicts with a's footprint
   [afp]: an others-only path from the parent s that behaves differently
   than from s·a must first read a register a wrote, and that very read
   occurs (at the same position) along the probe, tripping the conflict
   check.  Paths that need p to move again are covered by the child's
   own subtree.

   When a itself was visible ([a_visible]), the property monitors — all
   of which consume only the trace's region-change events, and detect a
   violation from the interleaved region sequence — additionally depend
   on the order of a against other visible steps, so the probe also
   fails on any reachable others-only region change.  (Two invisible
   steps, or one visible and one invisible, are monitor-independent: the
   region sequence the checkers consume is the same either way.)

   The probe keeps raw (uncanonicalised) keys: it answers a question
   about this concrete state, and the few hundred nodes it touches are
   not worth the canonicalisation work.

   The probe restores the entry state on normal return and may leave it
   dirty on a negative answer — callers roll back to their own
   checkpoint before trying anything else. *)
let others_commute st ~p ~afp ~a_visible ~used =
  let config = st.i_config in
  let seen : unit Tbl.t = Tbl.create 256 in
  let budget = ref 4096 in
  let rec go () =
    decr budget;
    if !budget <= 0 then raise Sub_budget;
    let regvals = Memory.values st.i_memory in
    let key = state_key_of st ~regvals ~used in
    if not (Tbl.mem seen key) then begin
      Tbl.add seen key ();
      let cands =
        candidates_of st.i_sched ~config ~fresh_only:false ~pairs:0
          ~nprocs:st.i_nprocs ~used
        |> List.filter (function
             | Step q -> q <> p
             | Crash _ | Recover _ -> false)
      in
      match cands with
      | [] -> ()
      | cands ->
        let tracelen = Trace.length st.i_trace in
        let ck = save st ~regvals ~tracelen in
        List.iter
          (fun a ->
            (match apply st a with
            | Some (_, r, k) ->
              let changed = Memory.values st.i_memory <> regvals in
              if
                Independence.conflict
                  (Independence.fp_of_access ~changed ~reg:r.Register.id k)
                  afp
              then raise Sub_conflict
            | None -> ());
            if a_visible && step_visible st ~from:tracelen then
              raise Sub_conflict;
            go ();
            rollback st ck)
          cands
    end
  in
  match go () with
  | () -> true
  | exception Sub_conflict -> false
  | exception Sub_budget -> false

(* [from] is the trace length at the parent node: the incremental check
   consumes only the events the arriving action appended.  [sleep] is the
   sleep set as a pid bitmask (always 0 without reduction); [pre] carries
   the child's canonical key and register values when the parent's
   singleton probe already computed them. *)
let rec expand_inc st schedule depth used ~from ~sleep ~pre =
  let config = st.i_config and c = st.i_c in
  if c.states >= config.max_states then begin
    cutoff c;
    raise Budget
  end;
  c.states <- c.states + 1;
  let trace_len = Trace.length st.i_trace in
  for pid = 0 to st.i_nprocs - 1 do
    match Scheduler.status st.i_sched pid with
    | Scheduler.Errored e ->
      raise
        (Found
           ( List.rev schedule,
             {
               Cfc_core.Spec.at = trace_len;
               pids = [ pid ];
               what = "process error: " ^ Printexc.to_string e;
             } ))
    | Scheduler.Runnable | Scheduler.Halted | Scheduler.Crashed -> ()
  done;
  (match st.i_inc.Inc.feed st.i_trace ~from with
  | Some v -> raise (Found (List.rev schedule, v))
  | None -> ());
  let kk, regvals =
    match pre with
    | Some (kk, regvals) -> (kk, regvals)
    | None ->
      let regvals = Memory.values st.i_memory in
      (canon_key_of st ~regvals ~used, regvals)
  in
  let por = Option.is_some st.i_por in
  (* The POR payload travels with the key: both live in canonical pid
     space, mapped by the witness permutation. *)
  let sleep_c = perm_sleep kk.kk_pi sleep in
  let steps_c = if por then perm_steps kk.kk_pi (steps_vector st) else [||] in
  let proceed =
    Seen.enter st.i_seen ~c ~por ~branch:st.i_branch
      ~rewritten:kk.kk_rewritten ~sleep:sleep_c ~steps:steps_c kk.kk_key
  in
  match proceed with
  | None -> ()
  | Some tok ->
    (* Stack tracking is only consulted (and only safe to mutate — the
       POR-off local path shares [Seen.dummy] across states) under
       reduction. *)
    let tracked = por in
    if tracked then Seen.open_incr tok;
    let cut0 = c.cutoffs in
    Fun.protect
      ~finally:(fun () -> if tracked then Seen.open_decr tok)
      (fun () ->
        let candidates =
          candidates_of st.i_sched ~config ~fresh_only:st.i_fresh_only
            ~pairs:st.i_pairs ~nprocs:st.i_nprocs ~used
        in
        match st.i_por with
        | Some por ->
          expand_por st por schedule depth used ~trace_len ~regvals ~sleep
            candidates
        | None -> (
          match candidates with
          | [] ->
            if not (Scheduler.all_quiescent st.i_sched) then cutoff c;
            c.runs <- c.runs + 1
          | _ when depth >= config.max_depth ->
            cutoff c;
            c.runs <- c.runs + 1
          | [ a ] ->
            (* A chain: no sibling will ever need this state back, so no
               checkpoint is taken. *)
            ignore (apply st a);
            expand_inc st (a :: schedule) (depth + 1) (bump_used used a)
              ~from:trace_len ~sleep:0 ~pre:None
          | candidates ->
            (* Checkpoint once; restore between siblings only — the last
               child leaves the state dirty, and the nearest branching
               ancestor's (absolute) restore repairs it. *)
            let ck = save st ~regvals ~tracelen:trace_len in
            List.iteri
              (fun i a ->
                if i > 0 then rollback st ck;
                ignore (apply st a);
                expand_inc st (a :: schedule) (depth + 1) (bump_used used a)
                  ~from:trace_len ~sleep:0 ~pre:None)
              candidates));
    (* Completed without raising and without hitting any bound below:
       other branches may now prune on this state. *)
    if c.cutoffs = cut0 then Seen.mark_done tok

(* The reduced node expansion.  Sleeping processes' steps are covered by
   commuted schedules under an earlier sibling, so they are dropped up
   front.  Among the rest the node tries a singleton ample set — one
   process whose applied step changes no region (dynamic invisibility),
   does not land on an already-covered state (the proviso: reduced
   cycles cannot starve the other processes), and whose footprint no
   other process can reach a conflicting access for on its own
   ([others_commute]).  If no such process exists the node expands
   fully, accumulating prior siblings into each child's sleep set. *)
and expand_por st por schedule depth used ~trace_len ~regvals ~sleep candidates =
  let config = st.i_config and c = st.i_c in
  let live, slept =
    List.partition
      (function
        | Step p -> sleep land (1 lsl p) = 0
        | Crash _ | Recover _ -> true (* reduction is gated to pairs = 0 *))
      candidates
  in
  c.pruned_por <- c.pruned_por + List.length slept;
  match live with
  | [] ->
    if candidates = [] then begin
      if not (Scheduler.all_quiescent st.i_sched) then cutoff c;
      c.runs <- c.runs + 1
    end
    (* otherwise every enabled step is asleep: each is explored, after
       commuting, under an earlier sibling of some ancestor *)
  | _ when depth >= config.max_depth ->
    cutoff c;
    c.runs <- c.runs + 1
  | [ a ] ->
    (* a chain, as in the unreduced engine: no checkpoint *)
    let access = apply st a in
    expand_inc st (a :: schedule) (depth + 1) (bump_used used a)
      ~from:trace_len
      ~sleep:(filter_sleep st por sleep access ~before:regvals)
      ~pre:None
  | live ->
    let nlive = List.length live in
    let ck = save st ~regvals ~tracelen:trace_len in
    let dirty = ref false in
    let chosen = ref None in
    let rec pick = function
      | [] -> ()
      | a :: rest ->
        if not (singleton_prefilter por a) then pick rest
        else begin
          if !dirty then rollback st ck;
          dirty := true;
          let access = apply st a in
          let child_regvals = Memory.values st.i_memory in
          let child_used = bump_used used a in
          let child_kk = canon_key_of st ~regvals:child_regvals ~used:child_used in
          let child_sleep = filter_sleep st por sleep access ~before:regvals in
          (* the cycle proviso: never step a singleton onto a state still
             being expanded on the DFS stack — the other processes' steps
             would be deferred around the cycle forever.  A child already
             fully explored is fine: its (completed) subtree carried the
             deferred steps.  The canonical key is the one the stack
             tracking is recorded under. *)
          let child_open = Seen.is_open st.i_seen child_kk.kk_key in
          let ok =
            (not child_open)
            &&
            match (a, access) with
            | Step p, Some (_, r, k) ->
              others_commute st ~p
                ~afp:
                  (Independence.fp_of_access
                     ~changed:(child_regvals <> regvals)
                     ~reg:r.Register.id k)
                ~a_visible:(step_visible st ~from:trace_len)
                ~used:child_used
            | _, None -> false (* a pause child shares the parent's key *)
            | (Crash _ | Recover _), _ -> false
          in
          if ok then chosen := Some (a, child_kk, child_regvals, child_sleep)
          else pick rest
        end
    in
    pick live;
    (match !chosen with
    | Some (a, child_kk, child_regvals, child_sleep) ->
      (* the state already carries [a] applied (the probe's work) *)
      c.pruned_por <- c.pruned_por + (nlive - 1);
      expand_inc st (a :: schedule) (depth + 1) (bump_used used a)
        ~from:trace_len ~sleep:child_sleep
        ~pre:(Some (child_kk, child_regvals))
    | None ->
      let sleep_now = ref sleep in
      List.iteri
        (fun i a ->
          if i > 0 || !dirty then rollback st ck;
          let access = apply st a in
          expand_inc st (a :: schedule) (depth + 1) (bump_used used a)
            ~from:trace_len
            ~sleep:(filter_sleep st por !sleep_now access ~before:regvals)
            ~pre:None;
          match a with
          | Step p -> sleep_now := !sleep_now lor (1 lsl p)
          | Crash _ | Recover _ -> ())
        live)

let run_inc_seq ~config ?seen_hint ?observe ~sym ~compact ~pairs ~system
    ~inc ~ind () =
  let c = new_counters () in
  let cap = tbl_size ?hint:seen_hint config in
  let seen = Seen.create ~compact ~shared:false cap in
  c.seen_cap <- cap;
  let st =
    make_inc_state ~config ~sym ~pairs ~branch:0 ~system ~inc ~ind ~seen ~c
      ~observe
  in
  let finish () = c.seen_pop <- Seen.population seen in
  match expand_inc st [] 0 0 ~from:0 ~sleep:0 ~pre:None with
  | () ->
    finish ();
    Ok (stats_of c)
  | exception Budget ->
    finish ();
    Ok (stats_of c)
  | exception Found (schedule, violation) ->
    finish ();
    Violation { schedule; violation; stats = stats_of c }

(* ------------------------------------------------------------------ *)
(* Domain-parallel exploration: the root node's candidate actions are
   independent subtrees; workers pull them from a shared index and run a
   full incremental engine on each (own system, own counters —
   continuations and registers cannot cross domains).  Results are
   merged by branch index, so the verdict, counterexample schedule and
   stats are deterministic and independent of the number of domains: the
   reported violation is the one in the earliest branch in canonical
   candidate order, i.e. the same branch the sequential DFS enters first.

   By default the branches pool their prunes through one shared sharded
   seen set ([share_seen]); cross-branch pruning is gated on subtree
   completion (see {!Seen}), which keeps verdict and schedule — though
   not the stats — deterministic.  [share_seen:false] falls back to
   fully private per-branch tables (each branch then re-discovers the
   states the others reached first — the A/B baseline the bench uses to
   demonstrate the pooling).  Each branch keeps the full [max_states]
   budget either way.

   Under reduction the root expands fully, and branch [i] starts with the
   prior branches' pids asleep (filtered through its own first action),
   mirroring the sequential sleep propagation. *)

type branch_result =
  | B_ok of stats
  | B_viol of action list * Cfc_core.Spec.violation * stats
  | B_fallback

let run_branch ~config ?seen_hint ?observe ~sym ~compact ~shared ~branch
    ~pairs ~system ~inc ~ind ~sleep0 a =
  let c = new_counters () in
  let seen =
    match shared with
    | Some seen -> seen
    | None ->
      let cap = tbl_size ?hint:seen_hint config in
      c.seen_cap <- cap;
      Seen.create ~compact ~shared:false cap
  in
  let st =
    make_inc_state ~config ~sym ~pairs ~branch ~system ~inc ~ind ~seen ~c
      ~observe
  in
  let regvals0 = Memory.values st.i_memory in
  (* With a private table, seed the memo with the initial state's key so
     a schedule that loops back to it is pruned exactly as in the
     sequential search (the shared table is seeded once by the
     coordinator instead). *)
  (match shared with
  | Some _ -> ()
  | None ->
    let kk = canon_key_of st ~regvals:regvals0 ~used:0 in
    Seen.seed seen ~nprocs:st.i_nprocs ~sleep:sleep0 kk.kk_key);
  let finish () =
    if shared = None then c.seen_pop <- Seen.population seen
  in
  match
    let access = apply st a in
    let sleep =
      match st.i_por with
      | None -> 0
      | Some por -> filter_sleep st por sleep0 access ~before:regvals0
    in
    expand_inc st [ a ] 1 (bump_used 0 a) ~from:0 ~sleep ~pre:None
  with
  | () ->
    finish ();
    B_ok (stats_of c)
  | exception Budget ->
    finish ();
    B_ok (stats_of c)
  | exception Found (schedule, violation) ->
    finish ();
    B_viol (schedule, violation, stats_of c)
  | exception Fallback -> B_fallback

let run_inc_par ~config ?seen_hint ?observe ~sym ~compact ~share_seen ~pairs
    ~system ~inc ~ind ~domains () =
  (* The root node is processed by the coordinator (it is the common
     prefix of every branch); its counter contributions mirror the
     sequential engine's. *)
  let c = new_counters () in
  let st =
    make_inc_state ~config ~sym ~pairs ~branch:0 ~system ~inc ~ind
      ~seen:(Seen.create ~compact ~shared:false 64) ~c ~observe
  in
  c.states <- 1;
  (* No process has run at the root: no errors, nothing to feed. *)
  let candidates =
    candidates_of st.i_sched ~config ~fresh_only:st.i_fresh_only ~pairs
      ~nprocs:st.i_nprocs ~used:0
  in
  match candidates with
  | [] ->
    if not (Scheduler.all_quiescent st.i_sched) then c.truncated <- true;
    c.runs <- 1;
    Ok (stats_of c)
  | _ when 0 >= config.max_depth ->
    c.truncated <- true;
    c.runs <- 1;
    Ok (stats_of c)
  | candidates ->
    let jobs = Array.of_list candidates in
    let njobs = Array.length jobs in
    let shared_cap = tbl_size ?hint:seen_hint config in
    let shared =
      if share_seen then begin
        let seen = Seen.create ~compact ~shared:true shared_cap in
        (* seed the root state (fully handled here) so every branch may
           prune schedules looping back to it *)
        let regvals0 = Memory.values st.i_memory in
        let kk = canon_key_of st ~regvals:regvals0 ~used:0 in
        Seen.seed seen ~nprocs:st.i_nprocs ~sleep:0 kk.kk_key;
        Some seen
      end
      else None
    in
    (* sleep seed per branch: the pids of the branches before it *)
    let sleeps = Array.make njobs 0 in
    (match ind with
    | None -> ()
    | Some _ ->
      let acc = ref 0 in
      Array.iteri
        (fun i a ->
          sleeps.(i) <- !acc;
          match a with
          | Step p -> acc := !acc lor (1 lsl p)
          | Crash _ | Recover _ -> ())
        jobs);
    let results = Array.make njobs (B_ok (stats_of (new_counters ()))) in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < njobs then begin
          results.(i) <-
            run_branch ~config ?seen_hint ?observe ~sym ~compact ~shared
              ~branch:i ~pairs ~system ~inc ~ind ~sleep0:sleeps.(i) jobs.(i);
          loop ()
        end
      in
      loop ()
    in
    let helpers =
      List.init
        (max 0 (min domains njobs - 1))
        (fun _ -> Domain.spawn worker)
    in
    worker ();
    List.iter Domain.join helpers;
    if Array.exists (function B_fallback -> true | B_ok _ | B_viol _ -> false)
         results
    then raise Fallback;
    (* First violating branch in candidate order wins; its stats merge
       with the branches the sequential DFS would have completed before
       reaching it. *)
    let first_viol = ref None in
    for i = njobs - 1 downto 0 do
      match results.(i) with
      | B_viol (schedule, violation, _) -> first_viol := Some (i, schedule, violation)
      | B_ok _ | B_fallback -> ()
    done;
    let last = match !first_viol with Some (i, _, _) -> i | None -> njobs - 1 in
    for i = 0 to last do
      let s =
        match results.(i) with
        | B_ok s -> s
        | B_viol (_, _, s) -> s
        | B_fallback -> assert false
      in
      c.runs <- c.runs + s.runs;
      c.states <- c.states + s.states;
      c.pruned_dedup <- c.pruned_dedup + s.pruned_dedup;
      c.pruned_sym <- c.pruned_sym + s.pruned_sym;
      c.pruned_por <- c.pruned_por + s.pruned_por;
      c.fp_collisions <- c.fp_collisions + s.fp_collisions;
      c.seen_pop <- c.seen_pop + s.seen_pop;
      c.seen_cap <- c.seen_cap + s.seen_cap;
      c.truncated <- c.truncated || s.truncated
    done;
    (match shared with
    | Some seen ->
      c.seen_pop <- c.seen_pop + Seen.population seen;
      c.seen_cap <- c.seen_cap + shared_cap
    | None -> ());
    (match !first_viol with
    | Some (_, schedule, violation) ->
      Violation { schedule; violation; stats = stats_of c }
    | None -> Ok (stats_of c))

(* ------------------------------------------------------------------ *)

(* The engine, over action schedules.  [pairs] is the crash–recovery
   budget: 0 disables fault injection entirely (the plain interleaving
   exploration), [pairs > 0] additionally offers, at every decision
   point, crashing any started runnable process (while crashes remain in
   the budget) and recovering any crashed one. *)
let run_gen ?(config = default_config) ?symmetry ?(engine = Incremental)
    ?(domains = 1) ?(share_seen = true) ?(compact = false)
    ?(replay_safe = true) ?independence ?seen_hint ~inc ?observe_access
    ~pairs ~system ~check () =
  (* The partial-order reduction applies only where its soundness
     argument does: the plain interleaving exploration (no crash
     branches — a crash wipes local state asynchronously and commutes
     with nothing the model sees) and only for systems with at least one
     usable model.  The symmetry canonicalisation composes with it — the
     memo payload travels into canonical pid space — and stays on under
     fault injection (a crash is as pid-equivariant as a step). *)
  let ind =
    match independence with
    | Some t when pairs = 0 && Independence.usable t -> Some t
    | Some _ | None -> None
  in
  let sym = symmetry in
  let observe = observe_access in
  match engine with
  | Replay ->
    run_replay ~config ?seen_hint ?observe ~sym ~pairs ~system ~check ()
  | Incremental when not replay_safe ->
    (* A static analysis (or a previous run) already knows some process
       swallows mid-access discontinuation; the incremental engine would
       only rediscover that and raise [Fallback] mid-search.  Skip the
       wasted work and start on the replay engine directly. *)
    run_replay ~config ?seen_hint ?observe ~sym ~pairs ~system ~check ()
  | Incremental -> (
    try
      if domains <= 1 then
        run_inc_seq ~config ?seen_hint ?observe ~sym ~compact ~pairs ~system
          ~inc ~ind ()
      else
        run_inc_par ~config ?seen_hint ?observe ~sym ~compact ~share_seen
          ~pairs ~system ~inc ~ind ~domains ()
    with Fallback ->
      (* Some process caught a register-op exception and continued; its
         local state is invisible to observation replay.  Start over on
         the (always sound) replay engine. *)
      run_replay ~config ?seen_hint ?observe ~sym ~pairs ~system ~check
        ())

let run ?config ?symmetry ?engine ?domains ?share_seen ?compact ?replay_safe
    ?independence ?seen_hint ~inc ?observe_access ~system ~check () =
  match
    run_gen ?config ?symmetry ?engine ?domains ?share_seen ?compact
      ?replay_safe ?independence ?seen_hint ~inc ?observe_access ~pairs:0
      ~system ~check ()
  with
  | Ok stats -> Ok stats
  | Violation { schedule; violation; stats } ->
    let pids =
      List.map
        (function
          | Step pid -> pid
          | Crash _ | Recover _ -> assert false (* pairs = 0 *))
        schedule
    in
    Violation { schedule = pids; violation; stats }

let run_faults ?config ?symmetry ?engine ?domains ?share_seen ?compact
    ?replay_safe ?independence ?seen_hint ~inc ?observe_access ?(pairs = 2)
    ~system ~check () =
  run_gen ?config ?symmetry ?engine ?domains ?share_seen ?compact
    ?replay_safe ?independence ?seen_hint ~inc ?observe_access ~pairs
    ~system ~check ()
