(** Measurement harness for the crash–recovery fault model: drives runs
    with injected crash/recover points ({!Adversary.run}, read however
    they stopped) and extracts the §2.2-style recovery-path measures via
    {!Measures.Online.recovery_paths} and {!Measures.Online.recovery_rmr}
    off each run's fold — no ad-hoc counting.  The crash points and the
    regions they hit are read off the run's trace.

    The central object is the {e solo crash-point sweep}: for every step
    [k] of a process's solo lock/unlock cycle, run it again with an
    atomic crash–restart injected just before its [k]-th access and
    measure the restarted incarnation's path back into the critical
    section.  For a recoverable lock this yields the exact recovery cost
    as a function of where the crash hit (holding the lock vs not); for
    a non-recoverable lock the points come back {!Stalled}.  The
    {e double sweep} re-crashes the restarted incarnation at every step
    of its recovery path, so recoverability of the recovery code itself
    is exercised, not assumed. *)

open Cfc_runtime
open Cfc_mutex

(** What the restarted incarnation did after the (last) crash. *)
type recovery =
  | Recovered of { path : Measures.sample; rmr : int }
      (** It re-entered the critical section; [path] are the measures of
          its recovery fragment, [rmr] its remote references under the
          cold-cache write-invalidate model. *)
  | Stalled
      (** It never re-entered the critical section before the run's step
          bound — the deadlocking outcome a recoverable lock must never
          produce. *)

type sweep_point = {
  crash_step : int;  (** scheduler step the crash was injected before *)
  crash_region : Event.region;  (** the region the process died in *)
  outcome : recovery;
}

type double_point = {
  first_crash : int;
  second_crash : int;  (** scheduler step of the re-crash (absolute) *)
  second_region : Event.region;  (** where the re-crash hit — [Trying]
      points here are crashes inside the recovery path itself *)
  final : recovery;  (** outcome of the last incarnation *)
}

val solo_sweep :
  ?rounds:int -> ?pid:int -> Registry.alg -> Mutex_intf.params ->
  sweep_point list
(** [solo_sweep alg p]: run [pid] (default 0) solo once per crash point
    [k = 0 .. solo steps - 1] with faults [crash@k; recover@k], and
    return one point per run in which the crash fired ([k = 0] is the
    "crashed before its first step" edge case).  A restarted incarnation
    that completed a recovery path yields [Recovered]; one that never
    re-entered the critical section yields [Stalled] — so a regression
    from recoverable to deadlocking is a visible point, not an empty
    list.  A run is cut [2 * (solo steps + 1)] scheduler steps after its
    last crash: a restarted incarnation that re-enters does so sooner,
    and one that cannot spins no longer than that. *)

val double_sweep :
  ?rounds:int -> ?pid:int -> ?window:int -> Registry.alg ->
  Mutex_intf.params -> double_point list
(** Repeated-incarnation sweep: for every first crash point [k] and
    every offset [d = 1 .. window] (default: solo steps + 2), inject
    [crash@k; recover@k; crash@k+d; recover@k+d] and report the last
    incarnation's outcome.  Small [d] re-crashes the first restarted
    incarnation {e inside its recovery path}; larger [d] re-crashes it
    after a completed recovery.  Points whose second crash fell beyond
    the run's halt are omitted (nothing new runs there). *)

val max_path : sweep_point list -> Measures.sample
(** Componentwise maximum of the measured recovery paths over the
    [Recovered] points. *)

val stalled : sweep_point list -> sweep_point list
(** The [Stalled] points — empty exactly when every crash point
    recovered. *)

val chaos :
  ?rounds:int -> ?pairs:int -> ?max_steps:int -> seed:int ->
  Registry.alg -> Mutex_intf.params ->
  Adversary.run * Fault.plan * Spec.violation option
(** One seeded chaos run: all [n] processes under round-robin with a
    {!Fault.chaos} schedule of [pairs] (default 2) crash–recovery pairs.
    Returns the {!Adversary.run} however it stopped (its fold carries the
    recovery paths), the injected plan, and the first violation of
    {!Spec.Monitor.mutual_exclusion_recoverable} (a process error, e.g.
    the critical-section witness, also reports as a violation). *)
