(** Harness for the naming problem (§3).

    Contention-free complexity follows the §3.2 definition verbatim: in a
    sequential run every process executes while all others have either
    terminated before it started or not started yet; the measure is the
    max per-process sample over such runs (we take the ascending order —
    for the symmetric deterministic algorithms here any order yields the
    same multiset of runs).  Worst-case complexity is estimated over
    schedule families, including the Theorem 6 lockstep adversary that
    keeps identical processes identical as long as possible. *)

open Cfc_runtime
open Cfc_naming

type cf_result = {
  max : Measures.sample;
  per_process : Measures.sample array;
  names : int array;  (** the name each process obtained *)
}

val instantiate :
  Registry.alg -> n:int -> Cfc_base.Mem_intf.mem -> int -> unit -> unit
(** [instantiate alg ~n mem] creates one naming instance on [mem] and
    returns the process body of every pid — the same closure for all,
    the processes being identical: enter [Trying], run the algorithm,
    decide the name.  The one body of the sequential run, the scheduled
    runs, the model checker's {!system} and the analyzer's subjects.
    Raises [Invalid_argument] if the algorithm does not support [n]. *)

val contention_free : Registry.alg -> n:int -> cf_result
(** The {!Solo.sequential} run of pids [0 .. n-1]; raises
    [Invalid_argument] on a naming-safety violation (duplicate or
    out-of-range name) or a process left without a name, and
    {!Runner.Process_error} if a process errors. *)

val run :
  ?max_steps:int ->
  ?crash_at:(int * int) list ->
  pick:Schedule.picker ->
  Registry.alg ->
  n:int ->
  Runner.outcome
(** All [n] processes run the algorithm once under the given schedule. *)

val system :
  Registry.alg -> n:int -> unit -> Cfc_runtime.Memory.t * (unit -> unit) array
(** Deterministic system builder for the model checker's replay. *)

val wc_estimate : seeds:int list -> Registry.alg -> n:int -> Measures.sample
(** Max per-process sample over the lockstep (round-robin) adversary of
    Theorem 6 and seeded random schedules.  Verifies name uniqueness on
    every run. *)

val lockstep_steps : Registry.alg -> n:int -> int
(** The Theorem 6 experiment in isolation: run the identical processes in
    lockstep rounds and return the maximum per-process step count — at
    least [n - 1] for every model without test-and-flip. *)
