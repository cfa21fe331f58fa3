(** Harness for the contention detection problem (§2.3): solo runs (the
    winner obligation and the contention-free measures) and contended runs
    (the at-most-one-winner obligation, worst-case measures — detectors
    are wait-free so the worst case is bounded, unlike mutex). *)

open Cfc_runtime
open Cfc_mutex

type cf_result = {
  max : Measures.sample;
  per_process : Measures.sample array;
  atomicity_declared : int;
  atomicity_observed : int;
}

val instantiate :
  Registry.detector -> Mutex_intf.params -> Cfc_base.Mem_intf.mem ->
  int -> unit -> unit
(** [instantiate det p mem] creates one detector instance on [mem] and
    returns each pid's process body: enter [Trying], run the detector,
    decide 1 (alone) or 0.  The one body of the solo runs, the scheduled
    runs, the model checker's {!system} and the analyzer's subjects.
    Raises [Invalid_argument] if the detector does not support [p]. *)

val contention_free : Registry.detector -> Mutex_intf.params -> cf_result
(** One {!Solo} run per {!Mutex_harness.sample_pids} process over a
    single arena; the sample is the process's whole run.  Raises
    [Invalid_argument] if some solo process fails to decide 1 (a
    correctness violation, per the problem spec), and
    {!Runner.Process_error} if a process errors. *)

val run :
  ?max_steps:int ->
  ?crash_at:(int * int) list ->
  pick:Schedule.picker ->
  Registry.detector ->
  Mutex_intf.params ->
  Runner.outcome
(** All [n] processes run the detector once; each decides 0 or 1. *)

val system :
  Registry.detector -> Mutex_intf.params ->
  unit -> Memory.t * (unit -> unit) array
(** Deterministic system builder for the model checker's replay. *)

val wc_estimate :
  seeds:int list -> Registry.detector -> Mutex_intf.params -> Measures.sample
(** {!Adversary.worst_case} of the max per-process sample, all processes
    competing, [max 1_000_000 (200 n)] scheduler steps per run. *)
