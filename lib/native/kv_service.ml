open Cfc_mutex
open Cfc_workload

type config = {
  domains : int;
  buckets : int;
  keys : int;
  ops : int;
  mean_think : int;
  theta : float;
  mix : Ycsb.mix;
  seed : int;
}

let default =
  { domains = 2; buckets = 16; keys = 1 lsl 20; ops = 2_000;
    mean_think = 10; theta = 0.99; mix = Ycsb.mix_a; seed = 42 }

type shard_stat = {
  ks_ops : int;
  ks_kinds : Kv_client.shard_ops;
  ks_p50_ns : float;
  ks_p99_ns : float;
  ks_max_ns : int;
}

type result = {
  total_ops : int;
  elapsed_ns : int;
  throughput : float;
  p50_ns : float;
  p90_ns : float;
  p99_ns : float;
  max_ns : int;
  counters : Instr_mem.counters;
  rmr_per_op : float;
  lost_updates : int;
  torn_scans : int;
  exclusion_ok : bool;
  hot_share : float;
  shards : shard_stat array;
}

let run ?instrument (module A : Mutex_intf.ALG) config =
  if config.domains < 1 then invalid_arg "Kv_service.run: domains < 1";
  if config.buckets < 1 then invalid_arg "Kv_service.run: buckets < 1";
  if config.keys < 1 then invalid_arg "Kv_service.run: keys < 1";
  if config.ops < 0 then invalid_arg "Kv_service.run: ops < 0";
  let nb = config.buckets in
  let p = Mutex_intf.params (max 2 config.domains) in
  if not (A.supports p) then
    invalid_arg (Printf.sprintf "%s: unsupported params" A.name);
  let arena = Native_harness.arena ?instrument ~domains:config.domains () in
  let module M = (val arena.Native_harness.mem) in
  let module K = Kv_client.Make (M) (A) in
  (* Plain int arrays: at millions of keys the counted arena would swamp
     the RMR estimate with store traffic that the paper's lock analysis
     says nothing about. *)
  let kv =
    K.create p ~buckets:nb ~keys:config.keys ~writers:config.domains
      (fun ~slots ->
        let values = Array.init nb (fun _ -> Array.make slots 0) in
        { Kv_client.get = (fun b s -> values.(b).(s));
          set = (fun b s v -> values.(b).(s) <- v) })
  in
  let hists =
    Array.init nb (fun _ ->
        Array.init config.domains (fun _ -> Latency_hist.create ()))
  in
  let worker me =
    (* The bucket of the running operation, for its latency histogram. *)
    let bucket = ref 0 in
    let rig =
      Native_harness.rig ~seed:config.seed ~pid:me ~mean:config.mean_think
        ~acquired:(fun t0 ->
          Latency_hist.record hists.(!bucket).(me)
            (Native_harness.now_ns () - t0))
    in
    let ops = Ycsb.stream ~seed:config.seed ~client:me ~nkeys:config.keys
        ~theta:config.theta config.mix
    in
    K.client kv rig ~writer:me ~me ~route:(fun _ b -> bucket := b) ops
      ~ops:config.ops
  in
  let elapsed_ns = Native_harness.run arena worker in
  let total_ops = config.domains * config.ops in
  (* Witness audit, after the joins (the version reads count as worker
     0's accesses). *)
  let lost = K.lost_updates kv ~final:M.read in
  let torn_scans = K.torn_scans kv in
  let shards =
    Array.init nb (fun b ->
        let lat = Native_harness.latency hists.(b) in
        {
          ks_ops = lat.Native_harness.count;
          ks_kinds = K.shard_ops kv ~bucket:b;
          ks_p50_ns = lat.Native_harness.p50_ns;
          ks_p99_ns = lat.Native_harness.p99_ns;
          ks_max_ns = lat.Native_harness.max_ns;
        })
  in
  let lat = Native_harness.latency (Array.concat (Array.to_list hists)) in
  let hot = Array.fold_left (fun acc s -> max acc s.ks_ops) 0 shards in
  let counters = Instr_mem.totals arena.Native_harness.instr in
  let per v = if total_ops = 0 then 0.0 else Float.of_int v /. Float.of_int total_ops in
  {
    total_ops;
    elapsed_ns;
    throughput = Native_harness.per_second total_ops ~elapsed_ns;
    p50_ns = lat.Native_harness.p50_ns;
    p90_ns = lat.Native_harness.p90_ns;
    p99_ns = lat.Native_harness.p99_ns;
    max_ns = lat.Native_harness.max_ns;
    counters;
    rmr_per_op = per counters.Instr_mem.rmr;
    lost_updates = lost;
    torn_scans;
    exclusion_ok = lost = 0 && torn_scans = 0;
    hot_share = per hot;
    shards;
  }
