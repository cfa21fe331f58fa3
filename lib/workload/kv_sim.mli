(** Sharded KV service on the event wheel: the one KV client body
    ({!Kv_client}) at thousands of simulated clients, on the wheel rig
    ({!Workload.wheel_rig}) with its values in counted arena registers —
    the deterministic twin of [Cfc_native.Kv_service].

    Complexity numbers stay honest under multi-lock traffic via
    {e per-shard projection}: the client body routes each operation's
    bucket to a side-channel, and the wheel sink sends the client's
    events to that bucket's own [Measures.Online] fold and
    [Spec.Monitor.mutual_exclusion] — so each shard's §2.2 entry windows
    are computed by {!Cfc_core.Measures} exactly as in a single-lock run,
    and exclusion is monitored on every bucket (DESIGN.md §2). *)

open Cfc_mutex

type kv_config = {
  kc_clients : int;  (** simulated clients (≥ 2; the lock's [n]) *)
  kc_buckets : int;  (** shards, each with its own lock instance *)
  kc_keys : int;  (** key space; key [k] ↦ bucket [k mod buckets] *)
  kc_ops : int;  (** operations per client *)
  kc_mean_think : int;  (** geometric think time in virtual ticks *)
  kc_theta : float;  (** Zipf skew: 0 uniform, 0.99 YCSB-zipfian *)
  kc_mix : Ycsb.mix;
  kc_seed : int;
}

type shard_stat = {
  ss_ops : int;
  ss_kinds : Kv_client.shard_ops;
  ss_acquisitions : int;  (** completed §2.2 entry windows on this shard *)
  ss_entry_steps_max : int;
  ss_entry_steps_mean : float;
  ss_events : int;  (** events routed to this shard's fold *)
}

type kv_result = {
  kr_ops : int;
  kr_acquisitions : int;
  kr_lost_updates : int;  (** version-witness shortfall; 0 iff no bucket
                              lock lost a mutation *)
  kr_torn_scans : int;  (** scans that saw the bucket version move *)
  kr_hot_share : float;  (** hottest shard's fraction of all ops *)
  kr_entry_steps_max : int;
  kr_turns : int;
  kr_total_steps : int;
  kr_spawned : int;
  kr_live_peak : int;
  kr_shards : shard_stat array;
}

val run :
  ?max_turns:int -> (module Mutex_intf.ALG) -> kv_config -> kv_result
(** One deterministic run: same config + seed ⇒ identical result, field
    for field (clients draw their think times via
    {!Workload.think_stream} and their operations via {!Ycsb.stream},
    both split-seeded per client).  Raises [Invalid_argument] on an
    unsupported parameter set or a mutual-exclusion violation on any
    bucket, {!Cfc_runtime.Runner.Process_error} on a process error, and
    {!Cfc_core.Adversary.Stalled} if the turn budget (default
    [20_000 · clients · ops]) is exhausted ({!Workload.drive}'s tail). *)
