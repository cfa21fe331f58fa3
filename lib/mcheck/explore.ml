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
let replay_actions ~system ~schedule =
  let memory, procs = system () in
  let trace = Trace.create () in
  let sched = Scheduler.create ~memory ~trace procs in
  List.iter
    (function
      | Step pid -> ignore (Scheduler.step sched pid)
      | Crash pid -> Scheduler.crash sched pid
      | Recover pid -> Scheduler.recover sched pid)
    schedule;
  let stopped =
    if Scheduler.all_quiescent sched then Runner.Quiescent
    else Runner.Picker_done
  in
  {
    Runner.memory;
    trace;
    scheduler = sched;
    stopped;
    total_steps = Scheduler.total_steps sched;
  }

let replay ~system ~schedule =
  replay_actions ~system ~schedule:(List.map (fun pid -> Step pid) schedule)

exception Found of action list * Cfc_core.Spec.violation
exception Budget

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
  mutable truncated : bool;
}

let new_counters () =
  { runs = 0; states = 0; pruned_dedup = 0; pruned_sym = 0; pruned_por = 0;
    fp_collisions = 0; seen_pop = 0; seen_cap = 0; truncated = false }

let stats_of c : stats =
  { runs = c.runs; states = c.states; pruned_dedup = c.pruned_dedup;
    pruned_sym = c.pruned_sym; pruned_por = c.pruned_por;
    fp_collisions = c.fp_collisions; seen_pop = c.seen_pop;
    seen_cap = c.seen_cap; truncated = c.truncated }

(* ------------------------------------------------------------------ *)
(* The seen set: exact keys or 64-bit×2
   fingerprints (compact mode).  Every stored state carries one
   {!Seen.entry}:

   - [e_sleep]/[e_steps] — what the stored exploration assumed, for the
     partial-order reduction's coverage check ({!Seen.covers}): a
     revisit is pruned only if the stored exploration slept on no more
     transitions and had at least as much per-process step budget.
     Without reduction they are never read (presence alone prunes).
   - [e_open] — in-progress expansions of the state on the DFS stack:
     the reduction's cycle proviso (a singleton ample set must not step
     onto a state still being expanded).
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
    e_fp2 : int;
  }

  (* Shared entry for the unreduced fast path, where only presence
     matters; never mutated. *)
  let dummy = { e_sleep = 0; e_steps = [||]; e_open = 0; e_fp2 = 0 }

  type t = Exact of entry Tbl.t | Compact of (int, entry) Hashtbl.t

  let create ~compact cap =
    if compact then Compact (Hashtbl.create cap) else Exact (Tbl.create cap)

  let population = function
    | Exact t -> Tbl.length t
    | Compact t -> Hashtbl.length t

  let fp_of ((key, used) : State_key.t * int) = State_key.fingerprint key used

  let rec steps_cover e_steps steps i =
    i < 0 || (steps.(i) >= e_steps.(i) && steps_cover e_steps steps (i - 1))

  let covers e ~sleep ~steps =
    e.e_sleep land lnot sleep = 0
    && steps_cover e.e_steps steps (Array.length steps - 1)

  let fresh ~sleep ~steps ~fp2 =
    { e_sleep = sleep; e_steps = steps; e_open = 0; e_fp2 = fp2 }

  let prune c ~rewritten =
    if rewritten then c.pruned_sym <- c.pruned_sym + 1
    else c.pruned_dedup <- c.pruned_dedup + 1;
    None

  let decide e ~c ~por ~rewritten ~sleep ~steps =
    if (not por) || covers e ~sleep ~steps then prune c ~rewritten
    else begin
      e.e_sleep <- sleep;
      e.e_steps <- steps;
      Some e
    end

  (* [None]: pruned (the matching counter has been bumped).  [Some e]:
     proceed and expand; [e]'s payload has been (re)set to this visit's
     sleep/steps. *)
  let enter seen ~c ~por ~rewritten ~sleep ~steps key =
    match seen with
    | Exact tbl when not por ->
      (* membership test and insert in one hashing pass: [replace] on a
         present key leaves the size unchanged *)
      let population = Tbl.length tbl in
      Tbl.replace tbl key dummy;
      if Tbl.length tbl = population then prune c ~rewritten else Some dummy
    | Exact tbl -> (
      match Tbl.find_opt tbl key with
      | Some e -> decide e ~c ~por ~rewritten ~sleep ~steps
      | None ->
        let e = fresh ~sleep ~steps ~fp2:0 in
        Tbl.add tbl key e;
        Some e)
    | Compact tbl -> (
      let fp1, fp2 = fp_of key in
      match Hashtbl.find_opt tbl fp1 with
      | Some e when e.e_fp2 <> fp2 ->
        c.fp_collisions <- c.fp_collisions + 1;
        Some (fresh ~sleep ~steps ~fp2)
      | Some e -> decide e ~c ~por ~rewritten ~sleep ~steps
      | None ->
        let e = fresh ~sleep ~steps ~fp2 in
        Hashtbl.add tbl fp1 e;
        Some e)

  let is_open seen key =
    let found =
      match seen with
      | Exact tbl -> Tbl.find_opt tbl key
      | Compact tbl -> (
        let fp1, fp2 = fp_of key in
        match Hashtbl.find_opt tbl fp1 with
        | Some e when e.e_fp2 = fp2 -> Some e
        | Some _ | None -> None)
    in
    match found with Some e -> e.e_open > 0 | None -> false
end

let is_runnable sched pid =
  match Scheduler.status sched pid with
  | Scheduler.Runnable -> true
  | Scheduler.Halted | Scheduler.Crashed | Scheduler.Errored _ -> false

let is_crashed sched pid =
  match Scheduler.status sched pid with
  | Scheduler.Crashed -> true
  | Scheduler.Runnable | Scheduler.Halted | Scheduler.Errored _ -> false

(* Scheduler choices offered at the current state, in the canonical
   order: steps (runnable pids ascending, optionally restricted to the
   lowest fresh pid, within the step budget), then crashes, then
   recoveries.  Built back-to-front by consing so the hot path allocates
   exactly the result list; [step.(pid)] is [Step pid], built once per
   search. *)
let candidates_of sched ~config ~step ~fresh_only ~pairs ~nprocs ~used =
  let acc = ref [] in
  if pairs > 0 then begin
    for pid = nprocs - 1 downto 0 do
      if is_crashed sched pid then acc := Recover pid :: !acc
    done;
    (* Crashing a process that has not yet taken a step reaches, after its
       recovery, a state indistinguishable from never crashing it — skip
       those branches outright. *)
    if used < pairs then
      for pid = nprocs - 1 downto 0 do
        if is_runnable sched pid && Scheduler.started sched pid then
          acc := Crash pid :: !acc
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
        is_runnable sched pid
        && Scheduler.steps_taken sched pid < config.max_steps_per_proc
        && not (Scheduler.started sched pid)
      then fresh := pid
    done;
    if !fresh >= 0 then acc := step.(!fresh) :: !acc;
    for pid = nprocs - 1 downto 0 do
      if
        is_runnable sched pid
        && Scheduler.steps_taken sched pid < config.max_steps_per_proc
        && Scheduler.started sched pid
      then acc := step.(pid) :: !acc
    done
  end
  else
    for pid = nprocs - 1 downto 0 do
      if
        is_runnable sched pid
        && Scheduler.steps_taken sched pid < config.max_steps_per_proc
      then acc := step.(pid) :: !acc
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
(* The engine: one live (memory, scheduler, trace) per search, extended
   by a single action per node and rolled back by checkpoint/undo
   between siblings.  Checkpoints are O(nprocs + registers) scalars —
   continuations are one-shot and cannot be cloned, so a process whose
   continuation was consumed by an abandoned sibling is rebuilt lazily
   by the scheduler from its recorded observations (exactly the [obs]
   lists maintained here, which double as the state key's per-process
   component).  Under the [Replay] policy every rollback drops every
   live continuation, so each process is rebuilt at its next step. *)

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

(* One checkpoint buffer.  The search keeps one per DFS depth, and the
   commutation probe one per probe depth, allocated the first time that
   depth branches and overwritten by every later save there: a node's
   checkpoint is live only while its own children run, and they save at
   deeper slots.  The search saves whole states ([save]); the probe saves
   only the part one step changes ([save_step]) and never touches the
   property monitor, so its buffers leave [ck_inc] at [ignore] and
   [ck_pre_*] unused.  [ck_pre_*] hold, per pid whose bit is set in
   [ck_pre_mask], the child key and register values the reduced node's
   pick loop computed, for the full expansion to reuse. *)
type checkpoint = {
  ck_sched : Scheduler.snap;
  mutable ck_regvals : int array;
  mutable ck_tracelen : int;
  ck_obs : State_key.cell list array;
  ck_obs_hash : int array;
  mutable ck_inc : unit -> unit;
  ck_canon : State_key.cell list array;  (* [||] without reduction *)
  ck_meta : (int * bool) list array;  (* [||] without reduction *)
  ck_ind : Independence.snap option;  (* [None] without reduction *)
  mutable ck_pre_mask : int;
  ck_pre_kk : keyed array;
  ck_pre_regvals : int array array;
}

type pool = {
  mutable cks : checkpoint array;
  mutable used : int;  (* buffers [0, used) may hold references *)
}

(* [others_commute]'s visited set: open addressing with linear probing,
   emptied between probes by clearing only the slots that probe filled,
   so a probe that visits a handful of nodes pays for a handful of
   slots, and no key outlives its probe.  A probe's keys all carry the
   same crash budget (the probe only steps), so the set stores bare
   keys. *)
module Probe_seen = struct
  type t = {
    mutable keys : State_key.t array;  (* [no_key] marks a free slot *)
    mutable hashes : int array;
    mutable filled : int array;  (* the slots filled, [count] of them *)
    mutable count : int;
  }

  let no_key = { State_key.k_regvals = [||]; k_procs = [||] }

  let create cap =
    { keys = Array.make cap no_key; hashes = Array.make cap 0;
      filled = Array.make (cap / 2) 0; count = 0 }

  let clear t =
    for j = 0 to t.count - 1 do
      t.keys.(t.filled.(j)) <- no_key
    done;
    t.count <- 0

  (* The slot holding [key] (whose hash is [h]), or the free slot where
     it would go. *)
  let slot t key h =
    let mask = Array.length t.keys - 1 in
    let i = ref (h land mask) in
    while
      t.keys.(!i) != no_key
      && not (t.hashes.(!i) = h && State_key.equal t.keys.(!i) key)
    do
      i := (!i + 1) land mask
    done;
    !i

  let put t i key h =
    t.keys.(i) <- key;
    t.hashes.(i) <- h;
    t.filled.(t.count) <- i;
    t.count <- t.count + 1

  let grow t =
    let keys = t.keys and hashes = t.hashes and filled = t.filled in
    let n = t.count in
    let cap = 2 * Array.length keys in
    t.keys <- Array.make cap no_key;
    t.hashes <- Array.make cap 0;
    t.filled <- Array.make (cap / 2) 0;
    t.count <- 0;
    for j = 0 to n - 1 do
      let k = keys.(filled.(j)) and h = hashes.(filled.(j)) in
      put t (slot t k h) k h
    done

  (* Insert [key]; [false] when it was already present. *)
  let add t key =
    if 2 * (t.count + 1) > Array.length t.keys then grow t;
    let h = State_key.hash key in
    let i = slot t key h in
    if t.keys.(i) != no_key then false
    else begin
      put t i key h;
      true
    end
end

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
  p_probe : Probe_seen.t;  (* [others_commute]'s seen set, per probe *)
  mutable p_budget : int;  (* [others_commute]'s remaining nodes *)
}

type inc_state = {
  i_config : config;
  i_rebuild_all : bool;
  i_fresh_only : bool;
  i_sym : Symmetry.t option;
  i_pairs : int;
  i_memory : Memory.t;
  i_sched : Scheduler.t;
  i_trace : Trace.t;
  i_obs : State_key.cell list array;  (* per pid, newest first *)
  i_obs_hash : int array;  (* per pid, rolling State_key.cell_hash fold *)
  i_nprocs : int;
  i_step : action array;  (* [Step pid] per pid *)
  i_inc : Inc.run;
  i_seen : Seen.t;
  i_c : counters;
  i_por : por_state option;
  i_observe :
    (pid:int -> reg:Register.t -> kind:Event.access_kind -> unit) option;
  i_cks : pool;  (* the search's checkpoints, by depth *)
  i_probe_cks : pool;  (* the probe's checkpoints, by probe depth *)
}

let make_inc_state ~config ~rebuild_all ~sym ~pairs ~system ~inc ~ind ~seen
    ~c ~observe =
  let memory, procs = system () in
  let trace = Trace.create () in
  let nprocs = Array.length procs in
  let obs = Array.make nprocs [] in
  (* The rebuild oracle, memoised per process on the physical identity
     of its observation list: a rollback puts back the very list it
     saved, so rebuilding the same process at the same history again
     reuses the answers instead of reversing the list anew. *)
  let memo_obs = Array.make nprocs [] and memo_kinds = Array.make nprocs [] in
  let oracle pid =
    let o = obs.(pid) in
    if o != memo_obs.(pid) then begin
      memo_obs.(pid) <- o;
      memo_kinds.(pid) <- List.rev_map (fun cl -> cl.State_key.kind) o
    end;
    memo_kinds.(pid)
  in
  let sched = Scheduler.create ~oracle ~memory ~trace procs in
  let por =
    match ind with
    | None -> None
    | Some t ->
      Some
        { p_tr = Independence.track t ~nprocs;
          p_canon = Array.make nprocs [];
          p_meta = Array.make nprocs [];
          p_probe = Probe_seen.create 256;
          p_budget = 0 }
  in
  { i_config = config; i_rebuild_all = rebuild_all;
    i_fresh_only = fresh_only_of ~sym ~ind; i_sym = sym;
    i_pairs = pairs; i_memory = memory; i_sched = sched;
    i_trace = trace; i_obs = obs;
    i_obs_hash = Array.make nprocs 0; i_nprocs = nprocs;
    i_step = Array.init nprocs (fun pid -> Step pid);
    i_inc = Inc.start inc ~nprocs; i_seen = seen; i_c = c; i_por = por;
    i_observe = observe; i_cks = { cks = [||]; used = 0 };
    i_probe_cks = { cks = [||]; used = 0 } }

let no_keyed =
  { kk_key = (Probe_seen.no_key, 0); kk_rewritten = false; kk_pi = None }

let new_checkpoint st =
  let n = st.i_nprocs in
  let por_lists () = match st.i_por with Some _ -> Array.make n [] | None -> [||] in
  { ck_sched = Scheduler.snapshot st.i_sched; ck_regvals = [||];
    ck_tracelen = 0; ck_obs = Array.make n []; ck_obs_hash = Array.make n 0;
    ck_inc = ignore; ck_canon = por_lists (); ck_meta = por_lists ();
    ck_ind = Option.map (fun por -> Independence.snapshot por.p_tr) st.i_por;
    ck_pre_mask = 0; ck_pre_kk = Array.make n no_keyed;
    ck_pre_regvals = Array.make n [||] }

(* The buffer of depth [d], created on first use. *)
let checkpoint_at st pool d =
  let have = Array.length pool.cks in
  if d >= have then
    pool.cks <-
      Array.init (max (d + 1) (2 * have)) (fun i ->
          if i < have then pool.cks.(i) else new_checkpoint st);
  if d >= pool.used then pool.used <- d + 1;
  pool.cks.(d)

(* Drop what a buffer references once its node is done, so that it
   keeps no dead branch's lists alive: buffers live in the major heap,
   and what they point to at a minor collection gets promoted. *)
let release ck =
  ck.ck_regvals <- [||];
  Array.fill ck.ck_obs 0 (Array.length ck.ck_obs) [];
  Array.fill ck.ck_canon 0 (Array.length ck.ck_canon) [];
  Array.fill ck.ck_meta 0 (Array.length ck.ck_meta) [];
  for p = 0 to Array.length ck.ck_pre_kk - 1 do
    if ck.ck_pre_mask land (1 lsl p) <> 0 then begin
      ck.ck_pre_kk.(p) <- no_keyed;
      ck.ck_pre_regvals.(p) <- [||]
    end
  done;
  ck.ck_pre_mask <- 0

let release_pool pool =
  for d = 0 to pool.used - 1 do
    release pool.cks.(d)
  done;
  pool.used <- 0

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
let rec drop_reentry obs meta ~reg ~cls =
  match (obs, meta) with
  | cl :: obs', (_, true) :: meta' ->
    if cl.State_key.reg = reg && Independence.class_id cl.State_key.kind = cls
    then Some (obs', meta')
    else drop_reentry obs' meta' ~reg ~cls
  | _, _ -> None

let push_canon por pid cl ~digest ~is_cyc obs meta =
  let h = match meta with [] -> 0 | (h, _) :: _ -> h in
  por.p_canon.(pid) <- cl :: obs;
  por.p_meta.(pid) <- (State_key.fold_digest h digest, is_cyc) :: meta

(* Fold the events appended since trace position [before] into the
   per-process observation lists (a crash wipes local state, so the
   observation history restarts).  Returns the trace position of the
   shared access among them, or [-1] (a step performs at most one;
   pause steps and crash/recover perform none). *)
let absorb st ~before =
  let access = ref (-1) in
  for i = before to Trace.length st.i_trace - 1 do
    let e = Trace.get st.i_trace i in
    match e.Event.body with
    | Event.Access (r, k) ->
      let pid = e.Event.pid in
      let cl = State_key.cell r k in
      let digest = State_key.cell_digest cl in
      st.i_obs.(pid) <- cl :: st.i_obs.(pid);
      st.i_obs_hash.(pid) <- State_key.fold_digest st.i_obs_hash.(pid) digest;
      access := i;
      (match st.i_observe with
      | Some f -> f ~pid ~reg:r ~kind:k
      | None -> ());
      (match st.i_por with
      | None -> ()
      | Some por -> (
        Independence.observe por.p_tr ~pid ~reg:r.Register.id ~kind:k;
        let is_cyc =
          Independence.cycle_member por.p_tr ~pid ~reg:r.Register.id ~kind:k
        in
        let obs = por.p_canon.(pid) and meta = por.p_meta.(pid) in
        match
          if is_cyc then
            drop_reentry obs meta ~reg:r.Register.id
              ~cls:(Independence.class_id k)
          else None
        with
        | Some (obs, meta) -> push_canon por pid cl ~digest ~is_cyc obs meta
        | None -> push_canon por pid cl ~digest ~is_cyc obs meta))
    | Event.Crash ->
      st.i_obs.(e.Event.pid) <- [];
      st.i_obs_hash.(e.Event.pid) <- 0
    | Event.Region_change _ | Event.Recover -> ()
  done;
  !access

(* Apply one action to the live system; the result is [absorb]'s. *)
let apply st a =
  let before = Trace.length st.i_trace in
  (match a with
  | Step pid -> ignore (Scheduler.step st.i_sched pid)
  | Crash pid -> Scheduler.crash st.i_sched pid
  | Recover pid -> Scheduler.recover st.i_sched pid);
  absorb st ~before

(* The value-aware footprint of the access at trace position [i]
   ([before] is the register-value array at the parent node; a step
   performs at most one access, so only its register can differ). *)
let access_fp st ~before i =
  match (Trace.get st.i_trace i).Event.body with
  | Event.Access (r, k) ->
    Independence.fp_of_access
      ~changed:(Memory.value_changed st.i_memory ~before r)
      ~reg:r.Register.id k
  | Event.Region_change _ | Event.Crash | Event.Recover ->
    invalid_arg "Explore.access_fp"

let save st ck ~regvals ~tracelen =
  Scheduler.snapshot_into st.i_sched ck.ck_sched;
  ck.ck_regvals <- regvals;
  ck.ck_tracelen <- tracelen;
  Array.blit st.i_obs 0 ck.ck_obs 0 st.i_nprocs;
  Array.blit st.i_obs_hash 0 ck.ck_obs_hash 0 st.i_nprocs;
  ck.ck_inc <- st.i_inc.Inc.save ();
  match (st.i_por, ck.ck_ind) with
  | Some por, Some ind ->
    Array.blit por.p_canon 0 ck.ck_canon 0 st.i_nprocs;
    Array.blit por.p_meta 0 ck.ck_meta 0 st.i_nprocs;
    Independence.snapshot_into por.p_tr ind
  | _, _ -> ()

(* The probe's undo of one step of [q]: a step changes only [q]'s
   scheduler record, observations and tracker position, one register
   and the trace's tail, so only those are saved. *)
let save_step st ck q ~regvals ~tracelen =
  Scheduler.snapshot_pid_into st.i_sched ck.ck_sched q;
  ck.ck_regvals <- regvals;
  ck.ck_tracelen <- tracelen;
  ck.ck_obs.(q) <- st.i_obs.(q);
  ck.ck_obs_hash.(q) <- st.i_obs_hash.(q);
  match (st.i_por, ck.ck_ind) with
  | Some por, Some ind ->
    ck.ck_canon.(q) <- por.p_canon.(q);
    ck.ck_meta.(q) <- por.p_meta.(q);
    Independence.snapshot_pid_into por.p_tr ind q
  | _, _ -> ()

let undo_step st ck q =
  Scheduler.restore_pid st.i_sched ck.ck_sched q;
  if st.i_rebuild_all then Scheduler.dispose st.i_sched;
  Memory.restore_values st.i_memory ck.ck_regvals;
  Trace.truncate st.i_trace ck.ck_tracelen;
  st.i_obs.(q) <- ck.ck_obs.(q);
  st.i_obs_hash.(q) <- ck.ck_obs_hash.(q);
  match (st.i_por, ck.ck_ind) with
  | Some por, Some ind ->
    por.p_canon.(q) <- ck.ck_canon.(q);
    por.p_meta.(q) <- ck.ck_meta.(q);
    Independence.restore_pid por.p_tr ind q
  | _, _ -> ()

let rollback st ck =
  Scheduler.restore st.i_sched ck.ck_sched;
  if st.i_rebuild_all then Scheduler.dispose st.i_sched;
  Memory.restore_values st.i_memory ck.ck_regvals;
  Trace.truncate st.i_trace ck.ck_tracelen;
  Array.blit ck.ck_obs 0 st.i_obs 0 st.i_nprocs;
  Array.blit ck.ck_obs_hash 0 st.i_obs_hash 0 st.i_nprocs;
  ck.ck_inc ();
  match (st.i_por, ck.ck_ind) with
  | Some por, Some ind ->
    Array.blit ck.ck_canon 0 por.p_canon 0 st.i_nprocs;
    Array.blit ck.ck_meta 0 por.p_meta 0 st.i_nprocs;
    Independence.restore por.p_tr ind
  | _, _ -> ()

let no_proc =
  { State_key.k_status = 0; k_region = Event.Remainder; k_obs_hash = 0;
    k_obs = [] }

let proc_key st pid ~obs_hash ~obs =
  { State_key.k_status = State_key.status_tag (Scheduler.status st.i_sched pid);
    k_region = Scheduler.region st.i_sched pid;
    k_obs_hash = obs_hash;
    k_obs = obs }

(* The raw key of the live state, over the canonical observation lists
   under reduction and the exact ones otherwise. *)
let state_key_of st ~regvals =
  let procs = Array.make st.i_nprocs no_proc in
  (match st.i_por with
  | Some por ->
    for pid = 0 to st.i_nprocs - 1 do
      let obs_hash = match por.p_meta.(pid) with [] -> 0 | (h, _) :: _ -> h in
      procs.(pid) <- proc_key st pid ~obs_hash ~obs:por.p_canon.(pid)
    done
  | None ->
    for pid = 0 to st.i_nprocs - 1 do
      procs.(pid) <-
        proc_key st pid ~obs_hash:st.i_obs_hash.(pid) ~obs:st.i_obs.(pid)
    done);
  { State_key.k_regvals = regvals; k_procs = procs }

(* ---- symmetry canonicalisation of memo keys ---- *)

let canon_key_of st ~regvals ~used =
  let raw = state_key_of st ~regvals in
  match st.i_sym with
  | None -> { kk_key = (raw, used); kk_rewritten = false; kk_pi = None }
  | Some s ->
    let k', pi = Symmetry.canon s raw in
    { kk_key = (k', used); kk_rewritten = pi <> None; kk_pi = pi }

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

let steps_vector st =
  let v = Array.make st.i_nprocs 0 in
  for pid = 0 to st.i_nprocs - 1 do
    v.(pid) <- Scheduler.steps_taken st.i_sched pid
  done;
  v

(* Which sleeping processes stay asleep across the executed access (the
   trace position [access], or [-1] for none): those whose next step
   provably commutes with it.  A pause step (no access) commutes with
   everything, and so does the value-aware footprint of an access that
   changed nothing.  An unknown next step wakes the sleeper. *)
let filter_sleep st por sleep access ~before =
  if sleep = 0 then 0
  else if access < 0 then sleep
  else begin
    let afp = access_fp st ~before access in
    let s = ref 0 in
    for t = 0 to st.i_nprocs - 1 do
      if sleep land (1 lsl t) <> 0 then
        match Independence.next_fp por.p_tr t with
        | Some nfp when not (Independence.conflict nfp afp) ->
          s := !s lor (1 lsl t)
        | Some _ | None -> ()
    done;
    !s
  end

(* The static side of the singleton-ample check: a process degraded to
   unknown (its accesses stopped matching its graph) is never picked as
   a singleton, preserving "statically unanalyzable ⇒ full expansion". *)
let singleton_prefilter por a =
  match a with
  | Crash _ | Recover _ -> false
  | Step p -> Independence.known por.p_tr p

(* Does the trace from position [i] on hold a region change?  The
   property checkers consume exactly region changes (protocol regions,
   decisions, halting) — so from the parent's trace length this is the
   dynamic visibility of the step just applied, checked on the real
   transition rather than approximated statically. *)
let rec region_change_from trace i =
  i < Trace.length trace
  &&
  match (Trace.get trace i).Event.body with
  | Event.Region_change _ -> true
  | Event.Access _ | Event.Crash | Event.Recover -> region_change_from trace (i + 1)

let step_visible st ~from = region_change_from st.i_trace from

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
   not worth the canonicalisation work.  [regvals] and [key] are the
   root's register values and raw key, which the caller has at hand.
   Its checkpoints skip the property monitor, which only the search
   feeds.

   The probe restores the entry state on normal return.  On a negative
   answer it leaves the state where it found the answer: just after the
   conflicting step, or at the node where the budget ran out, tracker
   positions included.  The caller rolls back to its own checkpoint
   before it applies another step, but the pick loop reads
   [Independence.known] for its next candidate before that rollback
   (see [pick]). *)
let rec probe_visit st por ~p ~afp ~a_visible ~depth ~regvals key =
  por.p_budget <- por.p_budget - 1;
  if por.p_budget <= 0 then raise Sub_budget;
  if Probe_seen.add por.p_probe key then begin
    let max_steps = st.i_config.max_steps_per_proc in
    let tracelen = Trace.length st.i_trace in
    let ck = checkpoint_at st st.i_probe_cks depth in
    for q = 0 to st.i_nprocs - 1 do
      if
        q <> p
        && is_runnable st.i_sched q
        && Scheduler.steps_taken st.i_sched q < max_steps
      then begin
        save_step st ck q ~regvals ~tracelen;
        ignore (Scheduler.step st.i_sched q);
        let access = absorb st ~before:tracelen in
        if
          access >= 0
          && Independence.conflict (access_fp st ~before:regvals access) afp
        then raise Sub_conflict;
        if a_visible && step_visible st ~from:tracelen then raise Sub_conflict;
        let regvals = Memory.values st.i_memory in
        probe_visit st por ~p ~afp ~a_visible ~depth:(depth + 1) ~regvals
          (state_key_of st ~regvals);
        undo_step st ck q
      end
    done
  end

let others_commute st por ~p ~afp ~a_visible ~regvals key =
  Probe_seen.clear por.p_probe;
  por.p_budget <- 4096;
  let ok =
    match probe_visit st por ~p ~afp ~a_visible ~depth:0 ~regvals key with
    | () -> true
    | exception Sub_conflict -> false
    | exception Sub_budget -> false
  in
  release_pool st.i_probe_cks;
  ok

(* The live candidates of a reduced node: those not asleep. *)
let rec awake sleep = function
  | [] -> []
  | (Step p as a) :: rest ->
    if sleep land (1 lsl p) = 0 then a :: awake sleep rest else awake sleep rest
  | ((Crash _ | Recover _) as a) :: rest ->
    (* reduction is gated to pairs = 0 *)
    a :: awake sleep rest

(* [from] is the trace length at the parent node: the incremental check
   consumes only the events the arriving action appended.  [sleep] is the
   sleep set as a pid bitmask (always 0 without reduction); [pre] carries
   the child's canonical key and register values when the parent's
   pick loop already computed them. *)
let rec expand_inc st schedule depth used ~from ~sleep ~pre =
  let config = st.i_config and c = st.i_c in
  if c.states >= config.max_states then begin
    c.truncated <- true;
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
    Seen.enter st.i_seen ~c ~por ~rewritten:kk.kk_rewritten ~sleep:sleep_c
      ~steps:steps_c kk.kk_key
  in
  match proceed with
  | None -> ()
  | Some _ when not por ->
    (* The POR-off path shares [Seen.dummy] across states: no stack
       tracking. *)
    expand_children st schedule depth used ~trace_len ~regvals ~sleep
  | Some e -> (
    (* Stack tracking, for the cycle proviso. *)
    e.Seen.e_open <- e.Seen.e_open + 1;
    match expand_children st schedule depth used ~trace_len ~regvals ~sleep with
    | () -> e.Seen.e_open <- e.Seen.e_open - 1
    | exception ex ->
      e.Seen.e_open <- e.Seen.e_open - 1;
      raise ex)

and expand_children st schedule depth used ~trace_len ~regvals ~sleep =
  let config = st.i_config and c = st.i_c in
  let candidates =
    candidates_of st.i_sched ~config ~step:st.i_step
      ~fresh_only:st.i_fresh_only ~pairs:st.i_pairs ~nprocs:st.i_nprocs ~used
  in
  match st.i_por with
  | Some por ->
    expand_por st por schedule depth used ~trace_len ~regvals ~sleep
      candidates
  | None -> (
    match candidates with
    | [] ->
      if not (Scheduler.all_quiescent st.i_sched) then c.truncated <- true;
      c.runs <- c.runs + 1
    | _ when depth >= config.max_depth ->
      c.truncated <- true;
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
      let ck = checkpoint_at st st.i_cks depth in
      save st ck ~regvals ~tracelen:trace_len;
      expand_all st ck schedule depth used ~trace_len ~first:true candidates;
      release ck)

and expand_all st ck schedule depth used ~trace_len ~first = function
  | [] -> ()
  | a :: rest ->
    if not first then rollback st ck;
    ignore (apply st a);
    expand_inc st (a :: schedule) (depth + 1) (bump_used used a)
      ~from:trace_len ~sleep:0 ~pre:None;
    expand_all st ck schedule depth used ~trace_len ~first:false rest

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
  let live = if sleep = 0 then candidates else awake sleep candidates in
  let nlive = List.length live in
  c.pruned_por <- c.pruned_por + (List.length candidates - nlive);
  match live with
  | [] -> (
    match candidates with
    | [] ->
      if not (Scheduler.all_quiescent st.i_sched) then c.truncated <- true;
      c.runs <- c.runs + 1
    | _ :: _ ->
      (* every enabled step is asleep: each is explored, after
         commuting, under an earlier sibling of some ancestor *)
      ())
  | _ when depth >= config.max_depth ->
    c.truncated <- true;
    c.runs <- c.runs + 1
  | [ a ] ->
    (* a chain, as in the unreduced engine: no checkpoint *)
    let access = apply st a in
    expand_inc st (a :: schedule) (depth + 1) (bump_used used a)
      ~from:trace_len
      ~sleep:(filter_sleep st por sleep access ~before:regvals)
      ~pre:None
  | live -> (
    let ck = checkpoint_at st st.i_cks depth in
    save st ck ~regvals ~tracelen:trace_len;
    ck.ck_pre_mask <- 0;
    match pick st por ck ~trace_len ~regvals ~sleep ~used live with
    | Some (a, child_kk, child_regvals, child_sleep) ->
      (* the state already carries [a] applied (the probe's work) *)
      release ck;
      c.pruned_por <- c.pruned_por + (nlive - 1);
      expand_inc st (a :: schedule) (depth + 1) (bump_used used a)
        ~from:trace_len ~sleep:child_sleep
        ~pre:(Some (child_kk, child_regvals))
    | None ->
      expand_full st por ck schedule depth used ~trace_len ~regvals ~sleep
        ~first:true live;
      release ck)

(* The pick loop: the first live step that passes the singleton checks,
   applied, with its child key, register values and sleep set.  Every
   step it applies records its child key and register values in [ck],
   so a nonzero [ck.ck_pre_mask] also means the state is dirty. *)
and pick st por ck ~trace_len ~regvals ~sleep ~used = function
  | [] -> None
  | a :: rest ->
    (* The prefilter reads [Independence.known] before the rollback
       below: after a failed probe the tracker still holds the
       positions where that probe stopped, not this node's.  The order
       is observable — rolling back first changes the recoverable-queue
       POR n=3 counts — and it stays sound.  The dirty positions
       extend this node's by further observed accesses, and an unknown
       position ([top]) stays unknown, so a process the dirty tracker
       reports known is known here too.  The dirty read can only skip a
       candidate the clean read would try, and skipping one is sound:
       a later candidate must pass the same checks, and the full
       expansion is the fallback. *)
    if not (singleton_prefilter por a) then
      pick st por ck ~trace_len ~regvals ~sleep ~used rest
    else begin
      if ck.ck_pre_mask <> 0 then rollback st ck;
      let access = apply st a in
      let child_regvals = Memory.values st.i_memory in
      let child_used = bump_used used a in
      let child_kk = canon_key_of st ~regvals:child_regvals ~used:child_used in
      (match a with
      | Step p ->
        ck.ck_pre_mask <- ck.ck_pre_mask lor (1 lsl p);
        ck.ck_pre_kk.(p) <- child_kk;
        ck.ck_pre_regvals.(p) <- child_regvals
      | Crash _ | Recover _ -> ());
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
        match a with
        | Step p when access >= 0 ->
          let key =
            match st.i_sym with
            | None -> fst child_kk.kk_key
            | Some _ -> state_key_of st ~regvals:child_regvals
          in
          others_commute st por ~p
            ~afp:(access_fp st ~before:regvals access)
            ~a_visible:(step_visible st ~from:trace_len)
            ~regvals:child_regvals key
        | Step _ -> false (* a pause child shares the parent's key *)
        | Crash _ | Recover _ -> false
      in
      if ok then Some (a, child_kk, child_regvals, child_sleep)
      else pick st por ck ~trace_len ~regvals ~sleep ~used rest
    end

and expand_full st por ck schedule depth used ~trace_len ~regvals ~sleep
    ~first = function
  | [] -> ()
  | a :: rest ->
    if (not first) || ck.ck_pre_mask <> 0 then rollback st ck;
    let access = apply st a in
    let pre =
      match a with
      | Step p when ck.ck_pre_mask land (1 lsl p) <> 0 ->
        Some (ck.ck_pre_kk.(p), ck.ck_pre_regvals.(p))
      | Step _ | Crash _ | Recover _ -> None
    in
    expand_inc st (a :: schedule) (depth + 1) (bump_used used a)
      ~from:trace_len
      ~sleep:(filter_sleep st por sleep access ~before:regvals)
      ~pre;
    let sleep =
      match a with Step p -> sleep lor (1 lsl p) | Crash _ | Recover _ -> sleep
    in
    expand_full st por ck schedule depth used ~trace_len ~regvals ~sleep
      ~first:false rest

(* ------------------------------------------------------------------ *)

(* The search, over action schedules.  [pairs] is the crash–recovery
   budget: 0 disables fault injection entirely (the plain interleaving
   exploration), [pairs > 0] additionally offers, at every decision
   point, crashing any started runnable process (while crashes remain in
   the budget) and recovering any crashed one. *)
let run_gen ?(config = default_config) ?symmetry ?(engine = Incremental)
    ?(compact = false) ?independence ?seen_hint ~inc ?observe_access ~pairs
    ~system () =
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
  (* Start on a collected heap.  What the caller dropped, such as the
     previous search's seen set, node stack and fibers (a registry sweep
     runs one search per lock), is otherwise freed only when the GC's
     next cycle ends, and this search would build its own on top of it
     to a peak that depends on where that cycle happened to be. *)
  Gc.full_major ();
  let c = new_counters () in
  let cap = tbl_size ?hint:seen_hint config in
  let seen = Seen.create ~compact cap in
  c.seen_cap <- cap;
  let st =
    make_inc_state ~config ~rebuild_all:(engine = Replay) ~sym:symmetry
      ~pairs ~system ~inc ~ind ~seen ~c ~observe:observe_access
  in
  (* However the search ends (verdict, [Found] or [Budget]), free the
     live system's suspended processes. *)
  let found =
    match expand_inc st [] 0 0 ~from:0 ~sleep:0 ~pre:None with
    | () | (exception Budget) -> None
    | exception Found (schedule, violation) -> Some (schedule, violation)
    | exception e ->
      Scheduler.dispose st.i_sched;
      raise e
  in
  Scheduler.dispose st.i_sched;
  c.seen_pop <- Seen.population seen;
  match found with
  | None -> Ok (stats_of c)
  | Some (schedule, violation) ->
    Violation { schedule; violation; stats = stats_of c }

(* [check] is the whole-trace form of [inc]; the search feeds [inc]
   only. *)
let run ?config ?symmetry ?engine ?compact ?independence ?seen_hint ~inc
    ?observe_access ~system ~check:_ () =
  match
    run_gen ?config ?symmetry ?engine ?compact ?independence ?seen_hint ~inc
      ?observe_access ~pairs:0 ~system ()
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

let run_faults ?config ?symmetry ?engine ?compact ?independence ?seen_hint
    ~inc ?observe_access ?(pairs = 2) ~system ~check:_ () =
  run_gen ?config ?symmetry ?engine ?compact ?independence ?seen_hint ~inc
    ?observe_access ~pairs ~system ()
