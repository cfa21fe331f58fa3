(** Drive a set of processes to completion under a schedule, producing the
    run's trace.  Harnesses reach it through [Cfc_core.Adversary]; custom
    loops can still use {!Scheduler.step} directly. *)

type stopped =
  | Quiescent     (** every process halted, crashed for good, or errored *)
  | Out_of_steps  (** [max_steps] scheduler steps executed *)
  | Picker_done   (** the picker returned [None] with processes pending *)

type outcome = {
  memory : Memory.t;
  trace : Trace.t;
  scheduler : Scheduler.t;
  stopped : stopped;  (** why the run ended *)
  total_steps : int;  (** shared-memory accesses performed in the run *)
}

exception Process_error of {
  pid : int;             (** the process that raised *)
  steps : int;           (** shared-memory accesses it had performed *)
  error : exn;           (** the underlying exception *)
  recent : Event.t list; (** its last few trace events, oldest first *)
}
(** A process errored (an algorithm bug or a model violation); see
    {!error}.  A printer is registered, so printing the exception shows
    the pid, step count, and trailing events. *)

val run :
  ?max_steps:int ->
  ?crash_at:(int * int) list ->
  ?faults:Fault.plan ->
  memory:Memory.t ->
  pick:Schedule.picker ->
  (unit -> unit) array ->
  outcome
(** [run ~memory ~pick procs] steps processes chosen by [pick] until the
    picker returns [None], all processes are quiescent, or [max_steps]
    (default [1_000_000]) scheduler steps have executed.  A process that
    errors stops; nothing is raised ({!error} reads it).

    [crash_at] is a list of [(step_index, pid)]: just before scheduler step
    number [step_index] (0-based), [pid] is fail-stopped.  [faults] is the
    general crash–recovery plan language ({!Fault.plan}); [crash_at] is
    sugar for a plan of crash points and both may be combined.  The merged
    plan is checked with {!Fault.validate} ([Invalid_argument] on
    duplicates, out-of-range pids, crashing an already-crashed pid, …).
    If all runnable processes are exhausted while fault points remain, the
    step clock fast-forwards to the next point so scheduled recoveries
    still fire. *)

val error : outcome -> exn option
(** The {!Process_error} of the outcome's first errored process, if
    any. *)

(** {1 Stall / error diagnosis} *)

type proc_report = {
  d_pid : int;
  d_status : Scheduler.status;
  d_region : Event.region;
  d_steps : int;
  d_recent : Event.t list;  (** last trace events of this pid, oldest first *)
}

val diagnose : ?recent:int -> outcome -> proc_report list
(** Structured per-process post-mortem of a run: status, protocol region,
    step count, and the last [recent] (default 5) trace events of each
    process.  Use on any outcome — most useful when [stopped] is not
    [Quiescent] (stalled run) or a process errored. *)

val pp_stopped : Format.formatter -> stopped -> unit
val pp_status : Format.formatter -> Scheduler.status -> unit

val pp_diagnosis : Format.formatter -> outcome -> unit
(** Render {!diagnose} for humans: stop reason, then one block per
    process. *)
