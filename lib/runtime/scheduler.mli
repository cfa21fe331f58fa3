(** The process-advance engine: the only code that runs a process.  It
    holds every process as a pending {!Proc.suspension} and advances one
    process by exactly one shared-memory access per [step] call.  Region
    changes are free (they are not steps in the paper's model) and are
    absorbed transparently; a pause is one step with no access, so
    schedulers regain control inside access-free loops; a sleep ends the
    step before it.  A pick policy that knows no other process can run
    next may let a step run ahead ({!step_ahead}): the process's next
    accesses then execute inline, with the events and counts of as many
    single steps.

    Pick policies sit on top: {!Runner} with a {!Schedule.picker} (round
    robin, random, solo, explicit lists; the model checker's {!Explore}),
    and {!Wheel}'s calendar queue.  Every event goes to one {!sink}; a
    trace is just {!trace_sink}.  The per-pid table is filled lazily, so
    a pid nobody touches costs no process record and reads as a fresh,
    runnable process in its remainder.

    The scheduler also supports checkpoint/undo ({!snapshot}/{!restore})
    for the incremental model checker.  OCaml's one-shot continuations
    cannot be cloned, so a checkpoint stores only scalar per-process
    state; a process whose continuation was consumed by an abandoned
    branch is discontinued at once (its fiber stack is freed) and rebuilt
    lazily by restarting its thunk and replaying its recorded
    observations (supplied by the [oracle] given at creation) and the
    register-op failures it caught (logged by the scheduler itself).
    The replay runs without effects: the answers sit on the arena's
    {!Memory.cursor}, where {!Sim_mem} takes them directly. *)

type status =
  | Runnable   (** has a pending suspension *)
  | Halted     (** the process function returned *)
  | Crashed    (** fail-stop injected *)
  | Errored of exn  (** the process raised *)

type sink = pid:int -> Event.body -> unit
(** Consumes events in emission order.  The scheduler assigns no
    sequence numbers: {!trace_sink} lets {!Trace.record} assign them, and
    a streaming consumer (e.g. [Measures.Online]) keeps its own count. *)

val null_sink : sink
val trace_sink : Trace.t -> sink
val tee : sink -> sink -> sink
(** [tee a b] feeds each event to [a] then [b]. *)

type t

val create :
  ?oracle:(int -> Event.access_kind list) ->
  memory:Memory.t -> trace:Trace.t -> (unit -> unit) array -> t
(** [create ~memory ~trace procs]: process [i] runs [procs.(i)] with pid
    [i].  Processes are started lazily at their first [step], so a process
    that is never scheduled has taken no steps ("not started" in the
    paper's contention-free definition).

    [oracle pid] must return the access kinds process [pid] has observed
    since its last (re)start, oldest first — exactly the [Event.Access]
    payloads recorded in the trace.  It is required for {!restore}:
    rebuilding an invalidated suspension replays the thunk against these
    answers.  Omit it for plain (non-backtracking) runs. *)

val of_spawn : sink:sink -> nprocs:int -> spawn:(int -> unit -> unit) -> t
(** [of_spawn ~sink ~nprocs ~spawn]: process [i] runs [spawn i], called
    once, when [i] is first touched (by {!spawn}, {!step}, {!crash} or
    {!recover}); its events go to [sink].  No undo. *)

(** {2 Queries}

    Every function taking a pid raises [Invalid_argument] naming the pid
    and [nprocs] when it is out of range.  Queries never spawn. *)

val nprocs : t -> int
val status : t -> int -> status
val region : t -> int -> Event.region
(** Current protocol region of a process (starts as [Remainder]). *)

val steps_taken : t -> int -> int
(** Shared-memory accesses this process has performed so far. *)

val total_steps : t -> int
(** Sum of {!steps_taken} over all processes. *)

val spawned : t -> int
(** Process records created so far. *)

val stamp : t -> int -> int
(** Changes, to a value it never had before, whenever the process steps,
    crashes or recovers ({!restore} excepted).  A pick policy can tag
    queue entries with it to tell stale ones. *)

val runnable : t -> int list
(** Pids that can still take steps, ascending. *)

val all_quiescent : t -> bool
(** No process is runnable (all halted/crashed/errored). *)

val spawn : t -> int -> bool
(** Create the process record of [pid] now, calling the spawn function.
    [false] if it already existed. *)

type step_result =
  | Progress      (** one access or one pause performed *)
  | Asleep of int (** stopped at a [Proc.sleep] of this many ticks, after
                      at most one access; the next step resumes through
                      the sleep *)
  | Finished      (** the process completed during this call *)
  | Not_runnable  (** it was already halted/crashed/errored *)

val step : t -> int -> step_result
(** Advance process [pid] by one shared-memory access (absorbing any free
    region-change events on the way).  Errors raised by the process are
    captured in its status.  A register operation that fails (a model
    or width violation) is no step: it records no event, and the
    process is unwound with its exception.  A process that catches the
    exception goes on within the same step, and the scheduler logs the
    failure — its exception, and how many calls the process had been
    answered before it — so that a rebuild after {!restore} raises it
    again at the same call.  [step t pid] is [step_ahead t pid ~ahead:0],
    without resetting {!ahead_taken}. *)

val step_ahead : t -> int -> ahead:int -> step_result
(** {!step}, granting the process a run-ahead of up to [ahead] further
    accesses.  After the step's own access or pause, the grant goes to
    the arena cursor of the register accessed (for a pause: of the last
    arena granted), and {!Sim_mem} answers the process's next accesses
    inline on the live registers: each is applied, then the same
    [Event.Access] goes to the same sink and its steps are counted, as
    if the process had been stepped again with no other process
    between.  Once the budget is spent the next access suspends as
    usual; pauses, sleeps and completion still end the step.  The step
    result is the one the last of those steps would have returned, and
    {!ahead_taken} tells how many accesses ran inline.  A pick policy
    may grant only when no other process could be picked before those
    accesses — {!Wheel} grants when its queue is empty, up to its next
    fault point or turn limit.

    During a run-ahead the sink runs on the process's own stack: an
    exception it raises surfaces in the process at that access (and,
    uncaught, ends it as {!Errored}) instead of escaping the step. *)

val ahead_taken : t -> int
(** Accesses the last {!step_ahead} ran inline. *)

val crash : t -> int -> unit
(** Inject a fail-stop crash: the process is unwound with {!Proc.Crashed},
    a [Crash] event is recorded, and it is not runnable again unless
    {!recover} is called (crash–recovery model). *)

val recover : t -> int -> unit
(** Crash–recovery model (Golab–Ramaraju): restart a [Crashed] process
    with fresh local state.  The process thunk is re-invoked from the top
    at its next [step]; shared memory persists untouched.  A [Recover]
    event is recorded, the process region resets to [Remainder] and its
    failure log (see {!step}) starts empty.  No-op if the process is not
    currently [Crashed]. *)

val started : t -> int -> bool
(** Whether the process has been scheduled at least once (stays true
    after a crash; reset by {!recover}). *)

type snap
(** A checkpoint of the scheduler's logical state (statuses, regions,
    step/call counters, failure logs — O(nprocs), no continuations).
    Register values and the trace are checkpointed separately by the
    caller ({!Memory.values}, {!Trace.length}/{!Trace.truncate}). *)

val snapshot : t -> snap

val snapshot_into : t -> snap -> unit
(** [snapshot_into t s] overwrites [s], which must come from {!snapshot}
    of the same scheduler, with the current state: a checkpoint that
    allocates nothing, for callers that keep one buffer per search
    depth. *)

val restore : t -> snap -> unit
(** Roll the scheduler back to [snap].  Processes untouched since the
    snapshot (same {!stamp}) keep their live suspension; others have
    it discontinued with {!Proc.Crashed} (so its fiber is freed now) and
    are rebuilt lazily at their next {!step} by observation replay
    through the creation-time [oracle]: the thunk restarts, the recorded
    answers are fed back, and each failure in the process's log, as of
    [snap], is raised again at the call where it happened.  Raises
    [Invalid_argument] if the scheduler was created without an
    oracle.

    Raises {!Replay_mismatch} later (at the rebuilding [step]) if the
    replayed effect stream diverges from the recorded observations —
    that would mean a process is nondeterministic or the caller's oracle
    is out of sync.  The arena's replay cursor is clear again after a
    rebuild, whether it succeeded or raised. *)

val snapshot_pid_into : t -> snap -> int -> unit
(** [snapshot_pid_into t s pid] overwrites only [pid]'s part of [s] (and
    the runnable count): enough to undo a step of [pid] alone with
    {!restore_pid}. *)

val restore_pid : t -> snap -> int -> unit
(** {!restore} limited to [pid] and the runnable count.  After
    [snapshot_pid_into t s pid], it undoes whatever happened to [pid]
    since, provided every other process is back at the stamp it had
    then (each was left alone, or rolled back itself). *)

val dispose : t -> unit
(** Discontinue every live suspension with {!Proc.Crashed}, freeing the
    fiber stacks of a system that is being abandoned.  Statuses and the
    trace are left as they are.  A process stepped afterwards is rebuilt
    as after {!restore}, which needs the creation-time [oracle]. *)

exception Replay_mismatch of string
