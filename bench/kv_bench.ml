(* EXP-KV bench: the sharded lock-backed KV service under Zipfian YCSB
   traffic, on both drivers, written to BENCH_kv.json.

   - Wheel grid: registry lock × θ ∈ {0, 0.6, 0.99} × mix ∈ {A, E} on
     the deterministic event-wheel driver (Kv_sim).  The base grid
     (256 clients) is identical in quick and full mode — like the scale
     bench's chaos configs, identical keys are what lets bench_diff
     compare a quick CI run against the committed baseline row by row;
     full mode adds the same grid at 4096 clients.  Every field except
     wall_s is deterministic in the seed.

   - Native grid: the same locks × θ × mix A on Kv_service
     (domain-parallel, Instr_mem-instrumented).  Wall-clock columns are
     noisy on CI runners; the diff gate asserts only the exclusion
     witnesses and a 1000× throughput floor.

   - Determinism: one wheel config re-run and compared field for field.

   Witness failures (lost updates / torn scans) are exit-1 failures. *)

open Cfc_mutex
open Cfc_workload

let locks =
  [ Registry.tas_lock; Registry.mcs; Registry.backoff; Registry.tree;
    Registry.peterson_tournament; Registry.kessels_tournament ]

let thetas = [ 0.0; 0.6; 0.99 ]
let wheel_mixes = [ Ycsb.mix_a; Ycsb.mix_e ]

let wheel_config ~clients ~theta ~mix =
  { Kv_sim.kc_clients = clients; kc_buckets = 16; kc_keys = 4096;
    kc_ops = 4; kc_mean_think = 4 * clients; kc_theta = theta;
    kc_mix = mix; kc_seed = 42 }

let wall f =
  let t0 = Unix.gettimeofday () in (* lint-allow: wall-clock — benchmark timer *)
  let r = f () in
  (r, Unix.gettimeofday () -. t0 (* lint-allow: wall-clock — benchmark timer *))

type wheel_row = {
  wr_alg : string;
  wr_clients : int;
  wr_theta : float;
  wr_mix : string;
  wr_r : Kv_sim.kv_result;
  wr_wall : float;
}

let wheel_row alg ~clients ~theta ~mix =
  let (module A : Mutex_intf.ALG) = alg in
  let kc = wheel_config ~clients ~theta ~mix in
  let r, w = wall (fun () -> Kv_sim.run alg kc) in
  Printf.printf
    "wheel  %-24s n=%-5d th=%-4.2f mix=%s acq=%-6d lost=%d torn=%d \
     hot=%.3f entmax=%-5d turns=%-8d %.3fs\n%!"
    A.name clients theta mix.Ycsb.mix_name r.Kv_sim.kr_acquisitions
    r.kr_lost_updates r.kr_torn_scans r.kr_hot_share r.kr_entry_steps_max
    r.kr_turns w;
  { wr_alg = A.name; wr_clients = clients; wr_theta = theta;
    wr_mix = mix.Ycsb.mix_name; wr_r = r; wr_wall = w }

(* The 2^12-client rows only carry the locks whose contended entry is
   O(1)/O(log n); the O(n)-scan locks (lamport-fast derivatives, the
   tree's spin) are already pinned by the 256-client grid and would
   make the full sweep run for hours, not minutes. *)
let big_locks =
  [ Registry.tas_lock; Registry.mcs; Registry.peterson_tournament;
    Registry.kessels_tournament ]

let wheel_sweep ~quick =
  let base =
    List.concat_map
      (fun alg ->
        List.concat_map
          (fun theta ->
            List.map (fun mix -> wheel_row alg ~clients:256 ~theta ~mix)
              wheel_mixes)
          thetas)
      locks
  in
  if quick then base
  else
    base
    @ List.concat_map
        (fun alg ->
          List.map
            (fun theta ->
              wheel_row alg ~clients:4096 ~theta ~mix:Ycsb.mix_a)
            [ 0.0; 0.99 ])
        big_locks

type native_row = {
  nr_alg : string;
  nr_domains : int;
  nr_theta : float;
  nr_mix : string;
  nr_r : Cfc_native.Kv_service.result;
  nr_wall : float;
}

let native_sweep ~quick =
  let domains_list = if quick then [ 2 ] else [ 2; 4 ] in
  let ops = if quick then 400 else 4_000 in
  let keys = if quick then 1 lsl 16 else 1 lsl 20 in
  List.concat_map
    (fun domains ->
      List.concat_map
        (fun alg ->
          let (module A : Mutex_intf.ALG) = alg in
          List.map
            (fun theta ->
              let c =
                { Cfc_native.Kv_service.domains; buckets = 16; keys; ops;
                  mean_think = 10; theta; mix = Ycsb.mix_a; seed = 42 }
              in
              let r, w = wall (fun () -> Cfc_native.Kv_service.run alg c) in
              Printf.printf
                "native %-24s d=%-2d th=%-4.2f mix=A thr=%-9.0f excl=%-5b \
                 hot=%.3f rmr/op=%-6.2f p99=%-8.0f %.3fs\n%!"
                A.name domains theta r.Cfc_native.Kv_service.throughput
                r.Cfc_native.Kv_service.exclusion_ok
                r.Cfc_native.Kv_service.hot_share
                r.Cfc_native.Kv_service.rmr_per_op
                r.Cfc_native.Kv_service.p99_ns w;
              { nr_alg = A.name; nr_domains = domains; nr_theta = theta;
                nr_mix = "A"; nr_r = r; nr_wall = w })
            thetas)
        locks)
    domains_list

(* Same seed, same config: the whole wheel result record must be
   identical — the determinism claim EXP-KV inherits from the wheel. *)
let determinism_check () =
  let kc = wheel_config ~clients:256 ~theta:0.99 ~mix:Ycsb.mix_a in
  let a = Kv_sim.run Registry.mcs kc in
  let b = Kv_sim.run Registry.mcs kc in
  a = b

(* A witness failure or entry_steps_max growth fails the diff gate; the
   other wheel counts are deterministic and reported when they move. *)
let wheel_columns =
  let open Cfc_base.Record in
  let r f w = Int (f w.wr_r) in
  [ col "name" Key (fun w -> Str w.wr_alg);
    col "driver" Note (fun _ -> Str "wheel");
    col "clients" Key (fun w -> Int w.wr_clients);
    fcol ~decimals:2 "theta" Key (fun w -> Float w.wr_theta);
    col "mix" Key (fun w -> Str w.wr_mix);
    col "ops" Note (r (fun r -> r.Kv_sim.kr_ops));
    col "acquisitions" Note (r (fun r -> r.Kv_sim.kr_acquisitions));
    col "lost_updates" No_growth (r (fun r -> r.Kv_sim.kr_lost_updates));
    col "torn_scans" No_growth (r (fun r -> r.Kv_sim.kr_torn_scans));
    fcol ~decimals:6 "hot_share" Note (fun w -> Float w.wr_r.Kv_sim.kr_hot_share);
    col "entry_steps_max" No_growth (r (fun r -> r.Kv_sim.kr_entry_steps_max));
    col "turns" Note (r (fun r -> r.Kv_sim.kr_turns));
    col "total_steps" Note (r (fun r -> r.Kv_sim.kr_total_steps));
    col "spawned" Note (r (fun r -> r.Kv_sim.kr_spawned));
    col "live_peak" Note (r (fun r -> r.Kv_sim.kr_live_peak));
    fcol ~decimals:3 "wall_s" Wall (fun w -> Float w.wr_wall) ]

(* CI schedulers routinely swing native throughput 100x, so only a
   1000x collapse fails: a livelocked lock, not a noisy neighbour. *)
let native_columns =
  let open Cfc_base.Record in
  let open Cfc_native.Kv_service in
  [ col "name" Key (fun n -> Str n.nr_alg);
    col "driver" Note (fun _ -> Str "native");
    col "domains" Key (fun n -> Int n.nr_domains);
    fcol ~decimals:2 "theta" Key (fun n -> Float n.nr_theta);
    col "mix" Key (fun n -> Str n.nr_mix);
    col "ops" Note (fun n -> Int n.nr_r.total_ops);
    col "throughput" Collapse (fun n -> Float n.nr_r.throughput);
    col "p50_ns" Wall (fun n -> Float n.nr_r.p50_ns);
    col "p99_ns" Wall (fun n -> Float n.nr_r.p99_ns);
    fcol ~decimals:3 "rmr_per_op" Wall (fun n -> Float n.nr_r.rmr_per_op);
    col "lost_updates" No_growth (fun n -> Int n.nr_r.lost_updates);
    col "torn_scans" No_growth (fun n -> Int n.nr_r.torn_scans);
    col "exclusion_ok" No_drop (fun n -> Bool n.nr_r.exclusion_ok);
    fcol ~decimals:6 "hot_share" Note (fun n -> Float n.nr_r.hot_share);
    fcol ~decimals:3 "wall_s" Wall (fun n -> Float n.nr_wall) ]

let () =
  let quick = Array.exists (( = ) "--quick") Sys.argv in
  print_endline "== EXP-KV: wheel driver (deterministic) ==";
  let wheel_rows = wheel_sweep ~quick in
  print_endline "== EXP-KV: native driver (domain-parallel) ==";
  let native_rows = native_sweep ~quick in
  let det = determinism_check () in
  Printf.printf "determinism: %s\n%!" (if det then "ok" else "DIVERGED");
  Cfc_base.Record.(
    write "BENCH_kv.json"
      { bench = "kv"; sweep = (if quick then "quick" else "full");
        tables =
          [ table "wheel_entries" wheel_columns wheel_rows;
            table "native_entries" native_columns native_rows;
            table "summary"
              [ col "determinism_ok" No_drop (fun d -> Bool d) ]
              [ det ] ] });
  Printf.printf "wrote BENCH_kv.json (%d wheel rows, %d native rows)\n%!"
    (List.length wheel_rows) (List.length native_rows);
  let wheel_bad =
    List.filter
      (fun w ->
        w.wr_r.Kv_sim.kr_lost_updates <> 0
        || w.wr_r.Kv_sim.kr_torn_scans <> 0)
      wheel_rows
  in
  let native_bad =
    List.filter
      (fun n -> not n.nr_r.Cfc_native.Kv_service.exclusion_ok)
      native_rows
  in
  List.iter
    (fun w ->
      Printf.eprintf "witness failure: wheel %s theta=%.2f mix=%s\n" w.wr_alg
        w.wr_theta w.wr_mix)
    wheel_bad;
  List.iter
    (fun n ->
      Printf.eprintf "witness failure: native %s domains=%d theta=%.2f\n"
        n.nr_alg n.nr_domains n.nr_theta)
    native_bad;
  if wheel_bad <> [] || native_bad <> [] || not det then exit 1
