(** Fault schedules for the crash–recovery model.

    A {!plan} is a list of timed fault points generalizing the old
    [crash_at] crash lists: a [Crash] fail-stops a process (local state
    lost, shared memory untouched), a later [Recover] of the same pid
    restarts its program from the top (Golab–Ramaraju crash–recovery).
    Plans are validated before a run: pids in range, no duplicates, and
    per-pid alternation crash / recover / crash / …  Faults scheduled at
    the same step apply in plan order, so [crash @@ k] followed by
    [recover @@ k] models an atomic crash–restart. *)

type kind = Crash | Recover

type point = {
  step : int;  (** scheduler step index just before which the fault fires *)
  pid : int;
  kind : kind;
}

type plan = point list

val crash : step:int -> pid:int -> point
val recover : step:int -> pid:int -> point

val of_crash_at : (int * int) list -> plan
(** Lift a legacy [crash_at] list of [(step, pid)] into a plan of crash
    points (no recoveries: fail-stop). *)

val validate : nprocs:int -> plan -> plan
(** Check a plan and return it sorted by step (stably, preserving plan
    order within a step).  Raises [Invalid_argument] with a descriptive
    message on: out-of-range or negative fields, exact duplicate points,
    crashing an already-crashed pid, or recovering a non-crashed pid. *)

val chaos : seed:int -> nprocs:int -> pairs:int -> horizon:int -> plan
(** Seeded random fault schedule: [pairs] crash–recovery pairs spread
    over roughly [horizon] scheduler steps.  Deterministic in [seed] and
    always passes {!validate}. *)

(** {1 Driving a run}

    The clock-and-plan loop shared by {!Runner} (whose clock counts
    scheduler steps) and {!Wheel} (whose clock counts turns). *)

type 'r turn =
  | Ran        (** one turn was taken: the clock advances by one *)
  | Idle of 'r (** nothing can run now; stop with this result unless a
                   fault point is still pending *)
  | Stop of 'r (** stop now with this result *)

type timeline
(** A validated plan being consumed, together with the run's clock. *)

val timeline : nprocs:int -> plan -> timeline
(** Starts at clock 0.  The plan is checked with {!validate}. *)

val clock : timeline -> int
(** Turns taken so far, plus any fast-forward jumps. *)

val next_due : timeline -> int
(** The [step] of the next pending fault point; [max_int] if none. *)

val skip : timeline -> int -> unit
(** [skip tl k]: the current turn stood for [1 + k] turns (a run-ahead
    of [k] accesses); the clock counts the [k] extra ones.  Call it from
    within the turn, before returning [Ran]. *)

val run :
  timeline -> crash:(int -> unit) -> recover:(int -> unit) ->
  (int -> 'r turn) -> 'r
(** [run tl ~crash ~recover turn]: before every turn, apply (in plan
    order) each pending point whose [step] is at most the clock, then
    call [turn clock].  On [Idle] with points still pending, the clock
    jumps to the next point, so a scheduled recover still fires into an
    otherwise quiescent system.  May be called again on the same
    timeline to continue a run. *)

val pp_kind : Format.formatter -> kind -> unit
val pp_point : Format.formatter -> point -> unit
val pp_plan : Format.formatter -> plan -> unit
