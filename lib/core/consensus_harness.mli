(** Harness for consensus — the §1.2 definitional example made
    executable.  Contention-free complexity is measured on solo runs
    exactly as the paper's sentence prescribes ("all other processes have
    either decided, or failed, or not started"); agreement and validity
    are checked on the run's decisions against the inputs. *)

open Cfc_runtime

type cf_result = {
  max : Measures.sample;
  per_process : Measures.sample array;
}

val instantiate :
  Cfc_consensus.Registry.alg -> n:int -> inputs:int array ->
  Cfc_base.Mem_intf.mem -> int -> unit -> unit
(** [instantiate alg ~n ~inputs mem] creates one consensus instance on
    [mem] and returns each pid's process body: enter [Trying], propose
    [inputs.(pid)], decide the result.  The one body of the solo runs,
    the scheduled runs, the model checker's {!system} and the analyzer's
    subjects.  Raises [Invalid_argument] unless [inputs] has [n]
    entries. *)

val contention_free :
  Cfc_consensus.Registry.alg -> n:int -> inputs:int array -> cf_result
(** One {!Solo} run per process over a single arena, reset to its
    initial values between runs; verifies that a solo process decides
    its own input (validity in the absence of other participants). *)

val run :
  ?max_steps:int ->
  ?crash_at:(int * int) list ->
  pick:Schedule.picker ->
  Cfc_consensus.Registry.alg ->
  n:int ->
  inputs:int array ->
  Adversary.run
(** All [n] processes propose [inputs.(pid)] under the schedule; the
    {!Adversary.run} whose fold {!check} reads. *)

val check : Adversary.run -> n:int -> inputs:int array -> Spec.violation option
(** {!Spec.agreed} over the fold's decisions, then, on quiescent runs,
    termination: every halted process decided. *)

val system :
  Cfc_consensus.Registry.alg -> n:int -> inputs:int array ->
  unit -> Memory.t * (unit -> unit) array
(** Deterministic system builder for the model checker. *)
