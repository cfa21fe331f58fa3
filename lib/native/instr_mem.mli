(** An instrumented wrapper around {!Native_mem}: the same [Atomic.t]
    registers, plus per-domain access counters and a software estimate of
    remote memory references (RMR).

    Counters live in a flat int array with one padded cache line per
    domain (no sharing, no atomic increments), so the overhead per access
    is a handful of private stores.  Turning instrumentation {e off} is
    not a flag on this module — it is simply using the uninstrumented
    {!Native_mem.mem} arena, which stays zero-cost because no check ever
    runs on its hot path.

    The RMR estimate replays the write-invalidate cache model of
    {!Cfc_core.Measures.Online.remote}: per register, a bitmask of
    domains holding a valid copy; an access is remote iff the accessing
    domain's bit is clear; a write invalidates everyone else.
    On a solo (uncontended) run the count is {e exactly} the trace
    measure — a test asserts this against the simulated backend — while
    under real concurrency the mask update races benignly and the
    estimate is conservative (never undercounts a remote access caused
    by an observed interleaving).

    Semantic-access accounting matches the trace model of
    {!Cfc_runtime.Event}: one count per [MEM] call (the base backend's
    internal CAS retries inside [bit_op]/[write_field] are invisible,
    as they are in the simulator); a failed [compare_and_set] counts as
    a read, [bit_op] is a write iff {!Cfc_base.Ops.writes} holds. *)

type counters = {
  ops : int;  (** all semantic accesses *)
  reads : int;
  writes : int;  (** [ops = reads + writes] *)
  cas_attempts : int;  (** explicit [compare_and_set] calls *)
  cas_failures : int;  (** …of which returned [false] *)
  rmr : int;  (** write-invalidate remote-access estimate *)
}

val zero : counters
val add : counters -> counters -> counters
val pp : Format.formatter -> counters -> unit

type t
(** One instrumented arena plus its counters. *)

val create : nprocs:int -> t
(** Fresh arena for [nprocs] worker domains ([1..62] — the RMR bitmask
    packs into one word). *)

val mem : t -> Cfc_base.Mem_intf.mem
(** The instrumented memory.  Allocate registers before spawning
    domains; every accessing domain must call {!register_worker}
    first. *)

val register_worker : t -> me:int -> unit
(** Bind the calling domain to worker slot [me] of this arena
    (domain-local).  A domain is registered with one arena at a time:
    registering it with another arena replaces the binding.  An access
    from a domain not registered with the arena raises [Failure]. *)

val evict : t -> me:int -> unit
(** Drop worker [me]'s bit from every register's holders mask — the
    cache of a crashed process dies with it, so a crash–restart's
    subsequent accesses count as remote exactly as in the cold-cache
    model of [Cfc_core.Measures.Online.recovery_rmr].  Called by the
    crash-injecting lock service at each injected crash point.  Benign
    races with concurrent accesses keep the estimate conservative, as
    for ordinary accesses. *)

val per_domain : t -> counters array
(** Per-worker counters.  Only coherent once the workers have been
    joined (plain stores; [Domain.join] is the synchronization). *)

val totals : t -> counters
