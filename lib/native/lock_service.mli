(** Domain-parallel lock-service benchmark: the native counterpart of
    {!Cfc_workload.Workload} on the domain driver {!Native_harness.run}.
    Each of [domains] workers runs [rounds] lock cycles
    ({!Cfc_core.Client.cycle}, the simulated rigs' cycle) with the
    workloads' critical section ([cs_len] shared writes,
    {!Cfc_core.Client.scratch}) on a native rig ({!Native_harness.rig}):
    it thinks on the simulated rigs' stream and times each acquisition
    into per-domain {!Latency_hist} histograms; crash injection is its
    crash hook.

    With [instrument] (default), the lock runs on {!Instr_mem}, so the
    result carries semantic-access counters and the write-invalidate RMR
    estimate; without it, on plain {!Native_mem} with all counters zero.
    Mutual exclusion is witnessed by a deliberately non-atomic counter
    (a lost update means a violation), as in
    {!Native_harness.contended}. *)

open Cfc_mutex

type config = {
  domains : int;  (** worker domains (the lock instantiates at [max 2 domains]) *)
  rounds : int;  (** acquisitions per domain *)
  mean_think : int;  (** mean geometric think, in [cpu_relax] turns *)
  cs_len : int;  (** shared writes inside the critical section *)
  seed : int;
  crash_every : int;
      (** 0 (default) = no crash injection.  Otherwise each acquisition
          crashes with probability [1/crash_every] (seeded, per-domain
          stream): the worker abandons the completed [lock] call —
          cooperatively losing the incarnation's local state, which is
          all a Golab–Ramaraju crash destroys, since domains cannot be
          killed — and re-runs [lock] from the top as the restarted
          incarnation.  The re-entry (the crash-while-holding recovery
          path) is timed into a separate histogram and its per-call RMR
          delta recorded.  Requires a recoverable lock. *)
}

val default : config

type result = {
  acquisitions : int;  (** [domains * rounds] *)
  elapsed_ns : int;  (** wall clock from barrier release to last join *)
  throughput : float;  (** acquisitions per second *)
  p50_ns : float;  (** acquisition-latency percentiles (lock call only) *)
  p90_ns : float;
  p99_ns : float;
  max_ns : int;
  counters : Instr_mem.counters;  (** totals; zero when uninstrumented *)
  rmr_per_acq : float;  (** [counters.rmr / acquisitions] *)
  exclusion_ok : bool;  (** non-atomic witness saw no lost update *)
  recoveries : int;  (** injected crash–recovery re-entries (0 without injection) *)
  recovery_p50_ns : float;  (** recovery-path latency percentiles *)
  recovery_p99_ns : float;
  recovery_max_ns : int;
  recovery_rmr_mean : float;
      (** mean instrumented RMR per recovery re-entry; zero when
          uninstrumented *)
  recovery_rmr_max : int;  (** worst single re-entry *)
}

val run : ?instrument:bool -> (module Mutex_intf.ALG) -> config -> result
(** [rounds = 0] gives all-zero figures.  Raises [Invalid_argument] if the
    algorithm does not support [max 2 domains] processes, on [domains < 1],
    [rounds < 0] or [crash_every < 0] ("Lock_service.run: …"), or on
    [crash_every > 0] with a lock whose [recovery] is [None]. *)
