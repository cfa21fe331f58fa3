(** Domain-parallel sharded KV service: the one KV client body
    ({!Cfc_workload.Kv_client}) that the wheel twin [Cfc_workload.Kv_sim]
    runs, here on the native rig ({!Native_harness.rig}) and the domain
    driver {!Native_harness.run}.  For a given [(seed, client)] both
    backends issue the same operations, witnesses included.

    Values live in plain lock-guarded arrays; the per-bucket version
    registers live in the counted {!Instr_mem} arena, so the RMR
    estimate covers lock + version traffic (DESIGN.md §2). *)

open Cfc_mutex
open Cfc_workload

type config = {
  domains : int;  (** worker domains, including the caller's *)
  buckets : int;  (** shards, each with its own lock instance *)
  keys : int;  (** key space; key [k] ↦ bucket [k mod buckets] *)
  ops : int;  (** operations per domain *)
  mean_think : int;  (** mean geometric think time, in [cpu_relax] spins *)
  theta : float;  (** Zipf skew: 0 uniform, 0.99 YCSB-zipfian *)
  mix : Ycsb.mix;
  seed : int;
}

val default : config

type shard_stat = {
  ks_ops : int;  (** lock acquisitions on this shard *)
  ks_kinds : Cfc_workload.Kv_client.shard_ops;
  ks_p50_ns : float;  (** lock-acquisition latency on this shard *)
  ks_p99_ns : float;
  ks_max_ns : int;
}

type result = {
  total_ops : int;
  elapsed_ns : int;
  throughput : float;  (** completed operations per second *)
  p50_ns : float;  (** acquisition latency over all shards *)
  p90_ns : float;
  p99_ns : float;
  max_ns : int;
  counters : Instr_mem.counters;  (** zeros when run uninstrumented *)
  rmr_per_op : float;
  lost_updates : int;  (** version-witness shortfall (0 = clean) *)
  torn_scans : int;  (** scans that saw their bucket version move *)
  exclusion_ok : bool;  (** both witnesses clean *)
  hot_share : float;  (** hottest shard's fraction of all ops *)
  shards : shard_stat array;
}

val run : ?instrument:bool -> (module Mutex_intf.ALG) -> config -> result
(** Runs [domains · ops] operations against the sharded store and
    reports throughput, per-shard latency, the instrumentation counters
    and both witnesses.  [instrument:false] swaps in the uninstrumented
    {!Native_mem} arena (zero-overhead hot path; [counters] all zero).
    [ops = 0] gives all-zero figures.  Raises [Invalid_argument] on bad
    dimensions ("Kv_service.run: …") or an unsupported parameter set. *)
