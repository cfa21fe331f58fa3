(** Measurement harness for mutual exclusion algorithms: builds the runs
    the paper's definitions quantify over and extracts the measures.

    One process body, {!instantiate}, serves every run: the solo runs of
    {!contention_free} (on {!Solo}), the scheduled runs of {!run} and
    {!wc_estimate}, the model checker's {!system}, and the analyzer's
    checked subjects.  Contention-free complexity is measured exactly:
    each sampled process is driven solo through one
    entry/critical/exit cycle (the unique contention-free run of a
    deterministic algorithm) and the maximum over processes is
    returned.  Worst-case complexity is estimated as a maximum over
    schedule families, with the provably unbounded entry cost
    demonstrated constructively by {!lamport_unbounded_entry}. *)

open Cfc_runtime
open Cfc_mutex

exception Critical_section_trampled of int
(** Raised by a checked process (argument: its pid) when the
    critical-section witness register no longer holds the value it just
    wrote — the constructive mutual-exclusion violation the model
    checker detects.  Still exported for the one copy of the checked body
    outside this module: bench/perf's traced cf-solo rig ([cf_traced])
    rebuilds {!contention_free} from public functions to time its
    layers. *)

val instantiate :
  ?rounds:int -> Registry.alg -> Mutex_intf.params -> Cfc_base.Mem_intf.mem ->
  int -> unit -> unit
(** [instantiate alg p mem] creates one instance of the algorithm on
    [mem], then the critical-section witness register ["cs.witness"],
    and returns the checked process body of each pid: [rounds] (default
    1) region-annotated lock/witness/unlock cycles.  Raises
    [Invalid_argument] if the algorithm does not support [p]. *)

type cf_result = {
  max : Measures.sample;  (** componentwise max over processes *)
  per_process : Measures.sample array;
  atomicity_declared : int;  (** the algorithm's [atomicity params] *)
  atomicity_observed : int;  (** widest register actually allocated *)
}

val contention_free : Registry.alg -> Mutex_intf.params -> cf_result
(** Each sampled process runs solo on the {!Wheel} with a streaming
    [Measures.Online] sink: no trace is materialised, only the measured
    process is ever spawned, and the between-runs reset touches exactly
    the registers the run accessed, so a run costs O(solo path) plus the
    wheel's O(n)-word pid table.  Raises [Invalid_argument] if the
    algorithm does not support the parameters, and
    {!Runner.Process_error} (with the last events, from a traced rerun)
    if the process errors. *)

val contention_free_streaming : Registry.alg -> Mutex_intf.params -> cf_result
(** {!contention_free}, under the name the EXP-SCALE callers use. *)

val run :
  ?rounds:int ->
  ?max_steps:int ->
  ?crash_at:(int * int) list ->
  ?faults:Fault.plan ->
  pick:Schedule.picker ->
  Registry.alg ->
  Mutex_intf.params ->
  Runner.outcome
(** All [n] processes perform [rounds] (default 1) lock/unlock cycles
    under the given schedule; region annotations are added around entry,
    critical section and exit so traces support the §2.2 measures and the
    {!Spec} checkers. *)

val wc_estimate :
  ?rounds:int -> seeds:int list -> Registry.alg -> Mutex_intf.params ->
  entry:bool -> Measures.sample
(** Max over a schedule family (round-robin plus one random schedule per
    seed) of the §2.2 worst-case entry ([entry:true]) or exit fragments. *)

val system :
  ?rounds:int -> Registry.alg -> Mutex_intf.params ->
  unit -> Memory.t * (unit -> unit) array
(** A deterministic system builder (fresh memory + fresh region-annotated
    process closures on each call) — the input shape the model checker's
    replay needs. *)

val lamport_unbounded_entry : spin:int -> Measures.sample
(** The EXP-WC∞ construction: a 2-process run of Lamport's fast algorithm
    in which the winning process takes at least [spin] entry steps within
    a window where no process is in its critical section or exit code —
    evidence (growing without bound in [spin]) that the worst-case step
    complexity of mutual exclusion is infinite [AT92]. *)

val sample_pids : int -> int list
(** The processes {!contention_free} measures: all of them for [n <= 64],
    a deterministic spread (ends, powers of two and neighbours) beyond —
    the per-pid cost equality of the symmetric algorithms is asserted
    exhaustively at small [n] by the test suite. *)
