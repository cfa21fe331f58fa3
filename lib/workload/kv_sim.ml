open Cfc_runtime
open Cfc_mutex
open Cfc_core

type kv_config = {
  kc_clients : int;
  kc_buckets : int;
  kc_keys : int;
  kc_ops : int;
  kc_mean_think : int;
  kc_theta : float;
  kc_mix : Ycsb.mix;
  kc_seed : int;
}

let kv_default =
  { kc_clients = 64; kc_buckets = 16; kc_keys = 4096; kc_ops = 8;
    kc_mean_think = 256; kc_theta = 0.99; kc_mix = Ycsb.mix_a; kc_seed = 42 }

type shard_stat = {
  ss_ops : int;
  ss_reads : int;
  ss_updates : int;
  ss_scans : int;
  ss_rmws : int;
  ss_acquisitions : int;
  ss_entry_steps_max : int;
  ss_entry_steps_mean : float;
  ss_events : int;
}

type kv_result = {
  kr_ops : int;
  kr_acquisitions : int;
  kr_lost_updates : int;
  kr_torn_scans : int;
  kr_hot_share : float;
  kr_entry_steps_max : int;
  kr_turns : int;
  kr_total_steps : int;
  kr_spawned : int;
  kr_live_peak : int;
  kr_shards : shard_stat array;
}

(* Values are 32-bit payloads; version counters share the width.  Both
   are far below the op counts any run here reaches. *)
let value_width = 32
let value_mask = (1 lsl value_width) - 1

let run ?max_turns (module A : Mutex_intf.ALG) (kc : kv_config) =
  if kc.kc_clients < 2 then invalid_arg "Kv_sim.run: clients < 2";
  if kc.kc_buckets < 1 then invalid_arg "Kv_sim.run: buckets < 1";
  if kc.kc_keys < 1 then invalid_arg "Kv_sim.run: keys < 1";
  if kc.kc_ops < 0 then invalid_arg "Kv_sim.run: ops < 0";
  let n = kc.kc_clients and nb = kc.kc_buckets in
  let p = Mutex_intf.params n in
  if not (A.supports p) then invalid_arg (A.name ^ ": unsupported");
  let memory = Memory.create () in
  let module M = (val Sim_mem.typed memory) in
  let module L = A.Make (M) in
  (* One lock instance per bucket, all over the same arena: a client's
     steps on bucket b's lock are ordinary counted accesses, and the
     per-shard projection below decides which shard's fold sees them. *)
  let locks = Array.init nb (fun _ -> L.create p) in
  (* Interleaved key layout: key k lives in bucket [k mod nb], slot
     [k / nb] — Zipf head ranks spread across buckets with geometrically
     decreasing weight, so one run exercises shards from hot to cold.
     Scans stay inside their bucket (slots wrap), so a scan holds exactly
     one lock; cross-bucket scans would need multi-lock ordering the
     paper's model says nothing about (DESIGN.md §2). *)
  let nslots = (kc.kc_keys + nb - 1) / nb in
  let stores =
    Array.init nb (fun b ->
        M.alloc_array ~name:(Printf.sprintf "kv.store.b%d" b)
          ~width:value_width ~init:0 nslots)
  in
  let versions = M.alloc_array ~name:"kv.ver" ~width:value_width ~init:0 nb in
  (* Per-shard projection: [target.(pid)] is the bucket pid's current
     operation addresses, written by the client thunk before its
     [Trying] region change; the sink routes every event of pid to that
     bucket's own streaming fold and exclusion monitor.  Each bucket
     thus observes complete Trying→Critical→Exiting→Remainder cycles of
     exactly the clients contending for it, and its §2.2 entry windows
     are computed by Cfc_core.Measures like any single-lock run's. *)
  let target = Array.make n 0 in
  let online = Array.init nb (fun _ -> Measures.Online.create ~nprocs:n) in
  let monitors = Array.init nb (fun _ -> Spec.Monitor.mutual_exclusion ()) in
  let sink ~pid body =
    let b = target.(pid) in
    Measures.Online.feed online.(b) ~pid body;
    Spec.Monitor.feed monitors.(b) ~pid body
  in
  (* Bookkeeping outside the measured arena: op tallies and witness
     expectations (client-thunk state, not shared-memory traffic). *)
  let ops_by_kind = Array.make_matrix nb 4 0 in
  let expected_bumps = Array.make nb 0 in
  let torn_scans = ref 0 in
  let spawn me =
    let think = Workload.think_stream ~seed:kc.kc_seed ~pid:me in
    let ops = Ycsb.stream ~seed:kc.kc_seed ~client:me ~nkeys:kc.kc_keys
        ~theta:kc.kc_theta kc.kc_mix
    in
    fun () ->
      for i = 1 to kc.kc_ops do
        let op = Ycsb.next ops in
        let key = Ycsb.key_of op in
        let b = key mod nb and slot = key / nb in
        target.(me) <- b;
        let d = think ~mean:kc.kc_mean_think in
        if d > 0 then Proc.sleep d;
        Proc.region Event.Trying;
        L.lock locks.(b) ~me;
        Proc.region Event.Critical;
        (* The version counter is the lost-update witness: a non-atomic
           read-then-write per mutating op, safe exactly when the bucket
           lock excludes.  The scan's version re-read is the torn-scan
           witness: a mid-scan change means another client mutated the
           bucket while the scan held its lock. *)
        (match op with
        | Ycsb.Read _ ->
          ops_by_kind.(b).(0) <- ops_by_kind.(b).(0) + 1;
          ignore (M.read stores.(b).(slot))
        | Ycsb.Update _ ->
          ops_by_kind.(b).(1) <- ops_by_kind.(b).(1) + 1;
          expected_bumps.(b) <- expected_bumps.(b) + 1;
          M.write stores.(b).(slot) (((me lsl 16) lor (i land 0xffff))
                                     land value_mask);
          let v = M.read versions.(b) in
          M.write versions.(b) ((v + 1) land value_mask)
        | Ycsb.Scan (_, len) ->
          ops_by_kind.(b).(2) <- ops_by_kind.(b).(2) + 1;
          let v0 = M.read versions.(b) in
          for j = 0 to len - 1 do
            ignore (M.read stores.(b).((slot + j) mod nslots))
          done;
          if M.read versions.(b) <> v0 then incr torn_scans
        | Ycsb.Rmw _ ->
          ops_by_kind.(b).(3) <- ops_by_kind.(b).(3) + 1;
          expected_bumps.(b) <- expected_bumps.(b) + 1;
          let v = M.read stores.(b).(slot) in
          M.write stores.(b).(slot) ((v + 1) land value_mask);
          let v = M.read versions.(b) in
          M.write versions.(b) ((v + 1) land value_mask));
        Proc.region Event.Exiting;
        L.unlock locks.(b) ~me;
        Proc.region Event.Remainder
      done
  in
  let total_ops = n * kc.kc_ops in
  let wheel =
    Workload.drive ?max_turns ~alg:A.name ~rounds:kc.kc_ops ~sink ~nprocs:n
      ~spawn
      ~monitors:
        (List.init nb (fun b -> (Printf.sprintf "bucket %d: " b, monitors.(b))))
      ~acquisitions:(fun () -> total_ops)
      ()
  in
  (* The arena outlives the run: read each bucket's final version count
     directly off its register and compare with the mutations the
     clients performed — any shortfall is a lost update. *)
  let lost = ref 0 in
  Array.iteri
    (fun b r -> lost := !lost + (expected_bumps.(b) - Register.read r))
    versions;
  let shards =
    Array.init nb (fun b ->
        let entries = Measures.Online.wc_entries online.(b) in
        let acq = List.length entries in
        let steps = List.map (fun (_, s) -> s.Measures.steps) entries in
        {
          ss_ops = Array.fold_left ( + ) 0 ops_by_kind.(b);
          ss_reads = ops_by_kind.(b).(0);
          ss_updates = ops_by_kind.(b).(1);
          ss_scans = ops_by_kind.(b).(2);
          ss_rmws = ops_by_kind.(b).(3);
          ss_acquisitions = acq;
          ss_entry_steps_max = List.fold_left max 0 steps;
          ss_entry_steps_mean =
            (if acq = 0 then 0.
             else
               float_of_int (List.fold_left ( + ) 0 steps)
               /. float_of_int acq);
          ss_events = Measures.Online.events_seen online.(b);
        })
  in
  let hot = Array.fold_left (fun acc s -> max acc s.ss_ops) 0 shards in
  {
    kr_ops = total_ops;
    kr_acquisitions =
      Array.fold_left (fun acc s -> acc + s.ss_acquisitions) 0 shards;
    kr_lost_updates = !lost;
    kr_torn_scans = !torn_scans;
    kr_hot_share =
      (if total_ops = 0 then 0.
       else float_of_int hot /. float_of_int total_ops);
    kr_entry_steps_max =
      Array.fold_left (fun acc s -> max acc s.ss_entry_steps_max) 0 shards;
    kr_turns = Wheel.turns wheel;
    kr_total_steps = Wheel.total_steps wheel;
    kr_spawned = Wheel.spawned wheel;
    kr_live_peak = Wheel.live_peak wheel;
    kr_shards = shards;
  }
