(** Locks on real domains: the one domain driver of the native backend
    ({!run}), its client rig ({!rig}) and the EXP-NATIVE wall-clock
    experiments.  {!Lock_service}, {!Kv_service}, {!contended} and
    {!naming_ns} are thin adapters over {!run}: each runs its clients
    ({!Cfc_core.Client}) inside the worker, so the driver adds no call
    per operation, and keeps only its rig, witnesses and result.

    Absolute numbers are machine-dependent; what reproduces the paper is
    the {e shape}: constant uncontended latency for Lamport's algorithm
    vs Θ(log n / l) for the tree vs Θ(n) for the bakery, and the §4
    backoff effect under contention. *)

open Cfc_mutex

type arena = { domains : int; instr : Instr_mem.t; mem : Cfc_base.Mem_intf.mem }

val arena : ?instrument:bool -> domains:int -> unit -> arena
(** Workers [0 .. domains-1] ([domains <= 62], the {!Instr_mem} bound)
    over [Instr_mem.mem instr] (default) or a plain, uncounted
    {!Native_mem} arena; worker 0, the caller, is registered so that a
    lock's [create] writes count as its. *)

val run : arena -> (int -> unit -> unit) -> int
(** [run a prepare]: worker [me] runs on its own domain (worker 0 on the
    caller), registers with [a.instr], calls [prepare me] (per-worker
    setup), waits at the start barrier, then runs the returned loop.
    Returns the nanoseconds from barrier release to the last join. *)

val now_ns : unit -> int  (** the monotonic clock *)

val rig :
  seed:int -> pid:int -> mean:int -> acquired:(int -> unit) ->
  Cfc_core.Client.rig
(** A native rig: each think spins [Domain.cpu_relax] for the next draw
    of {!Cfc_workload.Workload.think_stream} [~seed ~pid ~mean]; it
    marks no region and stamps each acquisition with {!now_ns}, and
    [acquired t0] runs as soon as the lock is held. *)

type latency = { count : int; p50_ns : float; p90_ns : float; p99_ns : float;
                 max_ns : int }

val latency : Latency_hist.t array -> latency
(** The merged histograms' summary (all zero when empty). *)

val per_second : int -> elapsed_ns:int -> float
(** 0.0 when [elapsed_ns <= 0]. *)

val uncontended_ns : ?iters:int -> Registry.alg -> Mutex_intf.params -> float
(** Nanoseconds per lock/unlock cycle on a single domain (the
    contention-free path), median of several batches. *)

val contended :
  ?iters:int -> domains:int -> Registry.alg -> Mutex_intf.params ->
  float * bool
(** [(ns_per_cycle, exclusion_ok)] with [domains] domains running
    back-to-back lock cycles (no think, no stamps); [exclusion_ok] is a
    shared-counter check (count equals total iterations iff no lost
    updates inside the critical section). *)

val naming_ns : ?repeats:int -> Cfc_naming.Registry.alg -> n:int -> float * bool
(** Wall-clock for assigning [n] names with [n] domains... capped at the
    machine's core count by running processes in waves; the boolean is
    the uniqueness check. *)
