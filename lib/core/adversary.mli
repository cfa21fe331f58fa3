(** The one driver of scheduled runs, the counterpart of {!Solo}: a
    fresh arena from a family's [instantiate] runs on
    {!Cfc_runtime.Runner} under a picker, and its trace is folded once
    into a {!Measures.Online} and the given {!Spec.Monitor}s.  {!check}
    ends a run through {!tail}, which the wheel rigs' [Workload.drive]
    share.  Callers whose result is the stop read a run unchecked (the
    harnesses' [run]s, the mutex worst-case runs, recovery sweeps, chaos
    runs).  Left outside: the model checker's [Explore.replay], and the
    sweeps' crash points, read off the trace. *)

open Cfc_runtime

exception Stalled of {
  alg : string;
  stopped : Runner.stopped;
  acquisitions : int;
  max_steps : int;
}
(** A run stopped before quiescence within [max_steps] scheduler steps
    (wheel turns for a rig) after [acquisitions]: critical-section
    entries plus decisions, or the rig's own count. *)

type instantiate = Cfc_base.Mem_intf.mem -> int -> unit -> unit
(** A family's process bodies on one arena. *)

type run = {
  outcome : Runner.outcome;
  online : Measures.Online.t;  (** the trace, folded once *)
  violation : Spec.violation option;  (** the first monitor's *)
  max_steps : int;
}

val arena : nprocs:int -> instantiate -> Memory.t * (unit -> unit) array
(** A fresh arena and every pid's body: the model checker's system. *)

val run :
  ?max_steps:int -> ?crash_at:(int * int) list -> ?faults:Fault.plan ->
  ?monitors:Spec.Monitor.t list -> pick:Schedule.picker -> nprocs:int ->
  instantiate -> run
(** At most [max_steps] (default [1_000_000]) scheduler steps; nothing
    the processes did is raised. *)

val outcome : run -> Runner.outcome
(** The outcome however the run stopped; raises its {!Runner.error}. *)

val tail :
  alg:string -> max_steps:int -> acquisitions:(unit -> int) ->
  error:exn option -> violation:(string * Spec.violation) option ->
  Runner.stopped -> unit
(** Raise [error], then [Invalid_argument "<alg>: <where><violation>"],
    then {!Stalled} unless the run stopped [Quiescent]. *)

val check : alg:string -> run -> run
(** {!tail} on a run; returns the run if it passed. *)

val family :
  ?max_steps:int -> seeds:int list -> nprocs:int -> instantiate ->
  (run -> 'a) -> 'a list
(** [f] of one unchecked {!run} per picker of the worst-case family, in
    order: round-robin, then one random schedule per seed. *)

val worst_case :
  alg:string -> ?max_steps:int -> seeds:int list -> nprocs:int ->
  instantiate -> (Measures.Online.t -> Measures.sample) -> Measures.sample
(** The componentwise maximum of [read] over {!family}'s runs, each
    {!check}ed. *)
