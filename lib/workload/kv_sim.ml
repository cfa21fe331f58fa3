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

type shard_stat = {
  ss_ops : int;
  ss_kinds : Kv_client.shard_ops;
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
  let module K = Kv_client.Make (M) (A) in
  (* Locks, values and versions all live in the one counted arena. *)
  let kv =
    K.create p ~buckets:nb ~keys:kc.kc_keys ~writers:1 (fun ~slots ->
        let stores =
          Array.init nb (fun b ->
              M.alloc_array ~name:(Printf.sprintf "kv.store.b%d" b)
                ~width:Kv_client.value_width ~init:0 slots)
        in
        { Kv_client.get = (fun b s -> M.read stores.(b).(s));
          set = (fun b s v -> M.write stores.(b).(s) v) })
  in
  (* Per-shard projection: [target.(pid)] is the bucket of pid's
     current operation, routed before its cycle's [Trying], so each
     bucket's fold and monitor see complete cycles of exactly the
     clients contending for it. *)
  let target = Array.make n 0 in
  let route me b = target.(me) <- b in
  let online = Array.init nb (fun _ -> Measures.Online.create ~nprocs:n) in
  let monitors = Array.init nb (fun _ -> Spec.Monitor.mutual_exclusion ()) in
  let sink ~pid body =
    let b = target.(pid) in
    Measures.Online.feed online.(b) ~pid body;
    Spec.Monitor.feed monitors.(b) ~pid body
  in
  let spawn me =
    let rig = Workload.wheel_rig ~seed:kc.kc_seed ~pid:me ~mean:kc.kc_mean_think in
    let ops = Ycsb.stream ~seed:kc.kc_seed ~client:me ~nkeys:kc.kc_keys
        ~theta:kc.kc_theta kc.kc_mix
    in
    (* The wheel runs one client at a time: all share writer 0. *)
    K.client kv rig ~writer:0 ~me ~route ops ~ops:kc.kc_ops
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
  (* The arena outlives the run: each bucket's final version count is
     read directly off its register. *)
  let lost = K.lost_updates kv ~final:Register.read in
  let shards =
    Array.init nb (fun b ->
        let entries = Measures.Online.wc_entries online.(b) in
        let acq = List.length entries in
        let steps = List.map (fun (_, s) -> s.Measures.steps) entries in
        let o = K.shard_ops kv ~bucket:b in
        {
          ss_ops = o.reads + o.updates + o.scans + o.rmws;
          ss_kinds = o;
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
    kr_lost_updates = lost;
    kr_torn_scans = K.torn_scans kv;
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
