(** Safety and liveness checkers over traces and event streams — the
    correctness side of the paper's problem statements.  Used by unit
    tests, qcheck properties, the streaming harnesses and the model
    checker alike. *)

open Cfc_runtime

type violation = {
  at : int;  (** sequence number of the offending event *)
  pids : int list;  (** processes involved *)
  what : string;
}

val pp_violation : Format.formatter -> violation -> unit

(** Event-fed mutual-exclusion monitors: the one implementation of the
    occupancy rule.  A monitor consumes events as a [Wheel.sink]
    (partially apply {!Monitor.feed}); the whole-trace checkers below fold
    one over a recorded trace, and {!Inc} feeds one at model-checker
    nodes.  Until the first violation at most one process occupies the
    critical section, so the state is one pid, the event count and the
    verdict: feeding is O(1) and allocation-free per event at any n.  The
    first violation is sticky: once it is recorded the monitor stops
    updating occupancy. *)
module Monitor : sig
  type t

  val mutual_exclusion : unit -> t
  (** No two processes simultaneously in their critical sections.  A
      process occupies its critical section from its entry to [Critical]
      until its next region change or its [Recover] (a bare [Crash]
      leaves it an occupant, as in {!Cfc_runtime.Trace.fold_states}). *)

  val mutual_exclusion_recoverable : unit -> t
  (** Mutual exclusion across crash–recoveries (Golab–Ramaraju
      semantics): a process that crashes inside its critical section
      still occupies it — shared memory says it holds the lock — until its
      restarted run next changes region; [Crash] and [Recover] leave
      occupancy untouched.  On crash-free event sequences this agrees
      with {!mutual_exclusion}. *)

  val feed : t -> pid:int -> Event.body -> unit

  val result : t -> violation option
  (** The first violation: [at] is the offending event's index in the
      sequence fed, [pids] the entering process followed by the
      occupant. *)
end

val mutual_exclusion : Trace.t -> nprocs:int -> violation option
(** {!Monitor.mutual_exclusion} folded over the trace. *)

val mutual_exclusion_recoverable : Trace.t -> nprocs:int -> violation option
(** {!Monitor.mutual_exclusion_recoverable} folded over the trace. *)

(** Incremental checkers for the model checker's DFS: instead of
    re-scanning the whole trace at every search node, a checker carries a
    small state that is fed only the events appended since the parent node
    and checkpointed/restored alongside the scheduler.  Provided [feed] is
    called once per node along each DFS path, each checker returns at the
    first node where a violation exists exactly the violation (same
    [at]/[pids]/[what]) its whole-trace counterpart returns on that
    node's trace. *)
module Inc : sig
  type t

  type run = {
    feed : Trace.t -> from:int -> violation option;
        (** Consume events [from .. length-1]; the first violation of the
            path so far, if any. *)
    save : unit -> unit -> unit;
        (** [save ()] checkpoints the checker state and returns a restore
            thunk; the thunk may be invoked any number of times. *)
  }

  val start : t -> nprocs:int -> run

  val on_decisions : (Trace.t -> nprocs:int -> violation option) -> t
  (** For properties that are functions of the decisions multiset only
      ({!unique_names}, {!at_most_one_winner}, consensus agreement):
      re-runs the whole check only at nodes whose new events contain a
      [Decided] region change — the verdict cannot change otherwise. *)

  val mutual_exclusion : t
  (** A {!Monitor.mutual_exclusion} fed the new events; [save] captures
      its state. *)

  val mutual_exclusion_recoverable : t
  (** A {!Monitor.mutual_exclusion_recoverable} fed the new events;
      [save] captures its state. *)
end

val mutex_progress : Runner.outcome -> violation option
(** Deadlock-freedom evidence on a completed run: every process that
    halted went through its critical section at least once, and no
    process is stuck ([completed] implies all halted/crashed). *)

val unique_names : Trace.t -> nprocs:int -> n:int -> violation option
(** Naming safety: every decided value is in [1..n] and no two processes
    decided the same value (crashed processes need not decide). *)

val all_named : Trace.t -> nprocs:int -> violation option
(** Wait-freedom evidence on a completed naming run: every non-crashed
    process decided. *)

val at_most_one_winner : Trace.t -> nprocs:int -> violation option
(** Contention detection: at most one process decided 1. *)

val solo_wins : Trace.t -> nprocs:int -> pid:int -> violation option
(** Contention detection: in a solo run of [pid], it decided 1. *)
