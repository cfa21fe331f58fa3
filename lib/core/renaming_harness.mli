(** Harness for one-shot renaming: contention-free measurement (solo
    runs), participation-bounded runs (only [k] of [n] processes take
    steps — the adaptivity the name-space bound quantifies over) and
    crash injection. *)

open Cfc_runtime

type cf_result = {
  max : Measures.sample;
  per_process : Measures.sample array;
  names : int array;  (** name obtained by each process in its solo run *)
}

val instantiate :
  Cfc_renaming.Registry.alg -> n:int -> Cfc_base.Mem_intf.mem ->
  int -> unit -> unit
(** [instantiate alg ~n mem] creates one renaming instance on [mem] and
    returns each pid's process body: enter [Trying], rename, decide the
    name.  The one body of the solo runs, the scheduled runs, the model
    checker's {!system} and the analyzer's subjects. *)

val contention_free : Cfc_renaming.Registry.alg -> n:int -> cf_result
(** One {!Solo} run per process over a single arena, reset to its
    initial values between runs.  Raises [Invalid_argument] if a solo
    process gets no name, and {!Runner.Process_error} if it errors.
    Uniqueness and range of names from scheduled runs are checked with
    [Spec.unique_names] over the run's trace, against the algorithm's
    [name_space ~n ~k]. *)

val run :
  ?max_steps:int ->
  ?crash_at:(int * int) list ->
  ?participants:int list ->
  pick:Schedule.picker ->
  Cfc_renaming.Registry.alg ->
  n:int ->
  Runner.outcome
(** Run renaming with the given participants (default: everyone);
    non-participants never start — they are simply never scheduled,
    which the solo/sequential/random-over-participants picker realizes
    via an explicit participant filter (the run then ends
    [Picker_done]). *)

val system :
  Cfc_renaming.Registry.alg -> n:int ->
  unit -> Memory.t * (unit -> unit) array
(** Deterministic system builder for the model checker. *)
