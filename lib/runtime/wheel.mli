(** The event wheel: a calendar-queue pick policy over {!Scheduler.step}
    for large [n].

    {!Runner} picks processes round-robin (or by any {!Schedule.picker})
    and suits adversarial interleavings at small [n].  The wheel picks by
    virtual time, so a run costs in proportion to the {e active set}, not
    to [n]:

    - a binary min-heap keyed by wake tick, FIFO within a tick, holds
      only processes that are runnable {e now} or parked on a
      {!Proc.sleep} timer — a process idling in its remainder section
      costs zero per turn;
    - processes are spawned lazily, at their first {!wake}: a solo run
      over an [n = 10^6] arena creates one process record;
    - events go to a {!Scheduler.sink} as they happen instead of a
      {!Trace.t} — pair it with [Measures.Online] for O(active-set)
      memory, or with {!Scheduler.trace_sink} to keep full recording at
      small [n].

    Each turn is one {!Scheduler.step}, so a process advances exactly as
    it would under {!Runner}: one shared access (or one pause) per turn,
    region changes absorbed.  A step that stops at a sleep parks the
    process until the clock reaches [now + max 1 d]; its next turn
    resumes through the sleep.

    Run-ahead: when the popped entry leaves the heap empty (stale
    entries included), no other process can run before the next fault
    point or the turn limit, so the wheel steps the process with
    {!Scheduler.step_ahead} and a budget that stops one turn short of
    either.  Its next accesses then run inline, without an effect or a
    heap round trip, and each still counts as a turn: {!turns}, {!now},
    fault timing, {!live_peak} and the event stream are what they would
    be with one turn per access.  A solo run is then a handful of steps.

    Determinism: turns are totally ordered by [(wake tick, insertion
    sequence number)], so identical wake/sleep/fault inputs produce the
    identical event stream — same seed, same run.

    Faults follow {!Runner}'s convention through {!Fault.run}: a
    {!Fault.point}'s [step] field counts {e turns} of the wheel, all due
    faults are applied before each turn, and when the heap drains while
    fault points remain, the turn clock fast-forwards to the next one.
    A crash leaves the process's queued entry stale (its
    {!Scheduler.stamp} moved on); a recover queues it at the current
    tick. *)

type status = Scheduler.status = Runnable | Halted | Crashed | Errored of exn

type t

val create :
  ?sink:Scheduler.sink ->
  ?faults:Fault.plan ->
  nprocs:int ->
  spawn:(int -> unit -> unit) ->
  unit -> t
(** [create ~nprocs ~spawn ()]: a wheel over pids [0..nprocs-1] where
    process [i] runs [spawn i] (called once, at the process's first
    {!wake} — lazy spawn).  [faults] is validated against [nprocs].
    Nothing runs until woken. *)

val wake : ?at:int -> t -> int -> unit
(** Queue a process to run at tick [at] (default: the current {!now}),
    spawning it.  No-op if it was spawned before: it is then already
    queued, halted, errored, or crashed (a crashed process re-enters
    through the fault plan's recover point).  Raises [Invalid_argument]
    if [at] is in the past or the pid out of range. *)

type stopped =
  | Quiescent     (** heap drained and no fault points pending *)
  | Out_of_turns  (** turn budget exhausted *)

val run : ?max_turns:int -> t -> stopped
(** Drive the wheel until quiescence or [max_turns] (default [max_int])
    turns.  One turn = one access or pause of a process: a queued
    process popped and advanced by one {!Scheduler.step}, or one access
    it ran inline in a run-ahead of that step.  The run stops after
    exactly [max_turns] turns.
    {!Scheduler.step}. *)

(** {2 Queries}

    Pid queries are {!Scheduler}'s: a never-woken process reads as
    [Runnable] in [Remainder] with no steps, and an out-of-range pid
    raises [Invalid_argument]. *)

val now : t -> int
(** Current virtual tick: the wake tick of the last popped entry, plus
    one per access that entry's step ran inline — the tick that access
    would have been popped at. *)

val turns : t -> int
(** Turns taken so far, inline accesses included, plus any fast-forward
    jumps of the fault clock ({!Fault.clock}). *)

val nprocs : t -> int
val status : t -> int -> status
val region : t -> int -> Event.region
val steps_taken : t -> int -> int
val total_steps : t -> int
val spawned : t -> int
(** Number of process records materialised so far (≤ active set). *)

val live_peak : t -> int
(** High-water mark of the calendar queue: the most entries (runnable or
    timer-parked, possibly a few stale) ever simultaneously queued. *)

val first_error : t -> (int * exn) option
(** The first process error in turn order, if any (deterministic). *)
