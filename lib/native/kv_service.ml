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
  ks_reads : int;
  ks_updates : int;
  ks_scans : int;
  ks_rmws : int;
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

let now () = Monotonic_clock.now ()

(* Mirrors Kv_sim: 32-bit version counters, key k ↦ bucket [k mod
   buckets], slot [k / buckets], scans wrap inside their bucket. *)
let value_width = 32
let value_mask = (1 lsl value_width) - 1

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
  let module L = A.Make (M) in
  let locks = Array.init nb (fun _ -> L.create p) in
  let nslots = (config.keys + nb - 1) / nb in
  (* Values live in plain (unsynchronized) int arrays guarded by the
     bucket locks — at millions of keys the counted arena would swamp
     the RMR estimate with store traffic that the paper's lock analysis
     says nothing about.  The per-bucket version register stays in the
     counted arena, so lock + version traffic is what the RMR numbers
     cover (DESIGN.md §2), and its non-atomic read-then-write under the
     lock doubles as the lost-update witness, exactly as in Kv_sim. *)
  let values = Array.init nb (fun _ -> Array.make nslots 0) in
  let versions = M.alloc_array ~name:"kv.ver" ~width:value_width ~init:0 nb in
  let hists =
    Array.init nb (fun _ ->
        Array.init config.domains (fun _ -> Latency_hist.create ()))
  in
  let ops_by_kind =
    Array.init config.domains (fun _ -> Array.make_matrix nb 4 0)
  in
  let expected = Array.init config.domains (fun _ -> Array.make nb 0) in
  let torn = Array.make config.domains 0 in
  let worker me =
    (* The wheel twin's streams: think times via Workload.think_stream,
       operations via Ycsb.stream — a (seed, client) pair replays the
       identical op sequence on both backends. *)
    let think =
      Native_harness.think ~seed:config.seed ~pid:me ~mean:config.mean_think
    in
    let ops = Ycsb.stream ~seed:config.seed ~client:me ~nkeys:config.keys
        ~theta:config.theta config.mix
    in
    fun () ->
      for i = 1 to config.ops do
        think ();
        let op = Ycsb.next ops in
        let key = Ycsb.key_of op in
        let b = key mod nb and slot = key / nb in
        let t0 = now () in
        L.lock locks.(b) ~me;
        let t1 = now () in
        Latency_hist.record hists.(b).(me) (Int64.to_int (Int64.sub t1 t0));
        (match op with
        | Ycsb.Read _ ->
          ops_by_kind.(me).(b).(0) <- ops_by_kind.(me).(b).(0) + 1;
          ignore (Sys.opaque_identity values.(b).(slot))
        | Ycsb.Update _ ->
          ops_by_kind.(me).(b).(1) <- ops_by_kind.(me).(b).(1) + 1;
          expected.(me).(b) <- expected.(me).(b) + 1;
          values.(b).(slot) <- ((me lsl 16) lor (i land 0xffff)) land value_mask;
          let v = M.read versions.(b) in
          M.write versions.(b) ((v + 1) land value_mask)
        | Ycsb.Scan (_, len) ->
          ops_by_kind.(me).(b).(2) <- ops_by_kind.(me).(b).(2) + 1;
          let v0 = M.read versions.(b) in
          let acc = ref 0 in
          for j = 0 to len - 1 do
            acc := !acc + values.(b).((slot + j) mod nslots)
          done;
          ignore (Sys.opaque_identity !acc);
          if M.read versions.(b) <> v0 then torn.(me) <- torn.(me) + 1
        | Ycsb.Rmw _ ->
          ops_by_kind.(me).(b).(3) <- ops_by_kind.(me).(b).(3) + 1;
          expected.(me).(b) <- expected.(me).(b) + 1;
          values.(b).(slot) <- (values.(b).(slot) + 1) land value_mask;
          let v = M.read versions.(b) in
          M.write versions.(b) ((v + 1) land value_mask));
        L.unlock locks.(b) ~me
      done
  in
  let elapsed_ns = Native_harness.run arena worker in
  let total_ops = config.domains * config.ops in
  let sum k f =
    let t = ref 0 in
    for i = 0 to k - 1 do
      t := !t + f i
    done;
    !t
  in
  let sum_domains = sum config.domains in
  (* Witness audit, after the joins: each bucket's final version count
     must equal the mutations performed on it, and no scan may have seen
     the version move while it held the lock. *)
  let lost =
    sum nb (fun b ->
        sum_domains (fun me -> expected.(me).(b)) - M.read versions.(b))
  in
  let torn_scans = sum_domains (Array.get torn) in
  let shards =
    Array.init nb (fun b ->
        let lat = Native_harness.latency hists.(b) in
        let kind k = sum_domains (fun me -> ops_by_kind.(me).(b).(k)) in
        {
          ks_ops = lat.Native_harness.count;
          ks_reads = kind 0;
          ks_updates = kind 1;
          ks_scans = kind 2;
          ks_rmws = kind 3;
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
