(** Workload generator over the simulator: repeated critical-section
    cycles with tunable think time (remainder-section delay) and
    critical-section length, driving the contention level from "rare"
    (the well-designed-system regime of the paper's introduction) to
    saturation.

    The headline §4 metric is the cost of the {e winning} process's entry
    measured from the moment the previous critical section was released —
    exactly the paper's worst-case entry fragment — which the discussion
    section claims stays near the contention-free cost when backoff is
    used, at any contention level. *)

open Cfc_mutex

type config = {
  n : int;  (** processes *)
  rounds : int;  (** critical-section cycles per process; [0] is legal and
                     yields an empty, NaN-free result *)
  mean_think : int;
      (** average remainder-section delay in scheduler turns (geometric,
          seeded); 0 = saturation, large = rare contention *)
  cs_len : int;  (** shared accesses performed inside the critical section *)
  seed : int;
}

val think_stream : seed:int -> pid:int -> (mean:int -> int)
(** Per-process deterministic think-time stream: successive calls return
    independent draws from a geometric distribution on [{0, 1, 2, …}]
    with expectation [mean] ({!Cfc_base.Ixmath.geometric} over a seeded
    [Random.State]), so delays have the memoryless shape the
    "well-designed system" regime assumes — most waits short, a long
    tail, mean exactly [mean].  [mean = 0] always returns 0.

    The per-pid state is [Random.State.make [| Ixmath.mix_seed seed pid |]]
    (split-seed mixing, not the raw [(seed, pid)] pair, whose adjacent-pid
    streams are correlated).  Every client rig, simulated or native,
    draws here, so the backends agree for identical [(seed, pid)]. *)

val wheel_rig : seed:int -> pid:int -> mean:int -> Cfc_core.Client.rig
(** The wheel rigs' {!Cfc_core.Client.sim} rig: each think draws the
    next [think_stream ~seed ~pid ~mean] delay [d] and, when [d > 0],
    sleeps [d] virtual ticks ({!Cfc_runtime.Proc.sleep}). *)

val drive :
  ?max_turns:int -> ?faults:Cfc_runtime.Fault.plan -> alg:string ->
  rounds:int -> sink:Cfc_runtime.Scheduler.sink -> nprocs:int ->
  spawn:(int -> unit -> unit) ->
  monitors:(string * Cfc_core.Spec.Monitor.t) list ->
  acquisitions:(unit -> int) -> unit -> Cfc_runtime.Wheel.t
(** The wheel rigs' driver ({!run_mutex_scale}, {!Kv_sim.run}): wake
    every pid, run [max_turns] (default [20_000 · nprocs · max 1
    rounds]), then end through {!Cfc_core.Adversary.tail} with the first
    monitor [(where, m)] holding a violation (a process error carries no
    recent events: the wheel records no trace). *)

type result = {
  acquisitions : int;  (** completed entries observed *)
  entry_steps_mean : float;
      (** mean §2.2 entry-fragment step count (winner's cost since
          release) *)
  entry_steps_max : int;
  entry_registers_max : int;
  cf_steps : int;  (** the algorithm's solo entry+exit cost, for reference *)
  observed_contention : float;
      (** mean number of processes in their entry code at entry events —
          the run's actual contention level *)
  total_steps : int;
  remote_max : int;  (** max per-process {!Cfc_core.Measures.Online.remote} *)
}

val run_mutex : ?max_steps:int -> Registry.alg -> config -> result
(** Runs the workload under round-robin scheduling (every process makes
    progress, delays come from think time) and extracts the metrics.
    Each process is {!Cfc_core.Client.clients} with the workloads'
    critical section on a simulator rig whose think is that many
    [pause] steps.  A checked {!Cfc_core.Adversary.run} of at most
    [max_steps] (default 10,000,000) scheduler steps with the mutual
    exclusion monitor. *)

val contention_sweep :
  Registry.alg -> n:int -> rounds:int -> thinks:int list -> seed:int ->
  (int * result) list
(** [run_mutex] across think times: the EXP-BACKOFF series. *)

(** {2 The O(active-set) scale rig}

    {!run_mutex} materialises a full trace and steps all [n] processes
    round-robin — right for small [n], impossible for [n = 10^5].  The
    scale rig drives the same lock cycle ({!Cfc_core.Client.clients},
    thinking on {!wheel_rig}) through the event wheel ({!Cfc_runtime.Wheel}) with streaming sinks
    ([Measures.Online] + [Spec.Monitor]), so cost follows the active
    set: sleeping processes are parked on the calendar queue, nothing
    is ever recorded, and the chaos variant is a
    Jepsen-in-one-process rig — thousands of crash-recovering clients
    against one recoverable lock, fully deterministic in the seed. *)

type scale_config = {
  sc_n : int;
  sc_rounds : int;  (** cycles per client per incarnation *)
  sc_mean_think : int;
      (** mean of the geometric think time in virtual ticks; large
          values (≳ 4n) keep the active set — and hence cost — small *)
  sc_cs_len : int;
  sc_seed : int;
  sc_chaos_pairs : int;
      (** crash–recovery pairs injected from {!Cfc_runtime.Fault.chaos};
          0 = crash-free.  Requires a recoverable lock when positive. *)
}

type scale_result = {
  sr_acquisitions : int;  (** completed §2.2 entry windows *)
  sr_crashes : int;
  sr_recoveries : int;
  sr_entry_steps_max : int;  (** max §2.2 entry-window step count *)
  sr_entry_steps_mean : float;
  sr_recovery_steps_max : int;  (** max completed recovery-path steps *)
  sr_recovery_rmr_max : int;  (** max cold-cache recovery RMR *)
  sr_events : int;  (** events streamed (never materialised) *)
  sr_turns : int;  (** wheel turns consumed *)
  sr_total_steps : int;  (** shared accesses across all processes *)
  sr_spawned : int;  (** process records materialised *)
  sr_live_peak : int;  (** calendar-queue high-water mark *)
}

val run_mutex_scale :
  ?max_turns:int -> Registry.alg -> scale_config -> scale_result
(** One deterministic scale run: same config + seed ⇒ identical result,
    field for field.  Raises [Invalid_argument] on an unsupported
    parameter set or chaos over a non-recoverable lock; then ends
    through {!drive} (budget [20_000 · n · rounds]) with a streamed
    {!Spec.Monitor}, the recoverable one under chaos. *)
