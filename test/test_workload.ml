(* Tests for the workload generator and the §4 (discussion) claims:
   winner's time-to-enter stays near the contention-free cost, backoff
   reduces total shared-memory traffic under contention, and the
   introduction's motivation — the fast algorithm beats the bakery when
   contention is rare. *)

open Cfc_base
open Cfc_mutex
open Cfc_workload

let check_bool = Alcotest.(check bool)
let check = Alcotest.(check int)

let cfg ?(n = 6) ?(rounds = 30) ?(think = 10) ?(seed = 7) () =
  { Workload.n; rounds; mean_think = think; cs_len = 3; seed }

let test_all_acquisitions_complete () =
  List.iter
    (fun (module A : Mutex_intf.ALG) ->
      let p = Mutex_intf.params 6 in
      if A.supports p then begin
        let r = Workload.run_mutex (module A) (cfg ()) in
        check (A.name ^ " acquisitions") (6 * 30) r.Workload.acquisitions
      end)
    Registry.all

(* §4: winner's entry cost since release stays within a small factor of
   the contention-free cost for the fast algorithm, at every contention
   level. *)
let test_winner_near_cf () =
  List.iter
    (fun think ->
      let r = Workload.run_mutex Registry.lamport_fast (cfg ~think ()) in
      check_bool
        (Printf.sprintf "think=%d mean %.1f within 2x cf" think
           r.Workload.entry_steps_mean)
        true
        (r.Workload.entry_steps_mean <= 2. *. float_of_int r.Workload.cf_steps);
      check_bool
        (Printf.sprintf "think=%d max %d within 4x cf" think
           r.Workload.entry_steps_max)
        true
        (r.Workload.entry_steps_max <= 4 * r.Workload.cf_steps))
    [ 0; 5; 40; 200 ]

(* Backoff reduces total shared-memory traffic under contention. *)
let test_backoff_reduces_traffic () =
  let with_ = Workload.run_mutex Registry.backoff (cfg ~think:5 ()) in
  let without = Workload.run_mutex Registry.lamport_fast (cfg ~think:5 ()) in
  check_bool
    (Printf.sprintf "backoff traffic %d < plain %d" with_.Workload.total_steps
       without.Workload.total_steps)
    true
    (with_.Workload.total_steps < without.Workload.total_steps)

(* MS93 packing: the packed variant's contention-free cost equals plain
   Lamport's (the deterministic slow-path scan comparison lives in
   test_mutex). *)
let test_packed_same_cf () =
  let big = cfg ~n:6 ~think:0 () in
  let plain = Workload.run_mutex Registry.lamport_fast big in
  let packed = Workload.run_mutex Registry.ms_packed big in
  check "same contention-free cost" plain.Workload.cf_steps
    packed.Workload.cf_steps;
  check "same acquisitions" plain.Workload.acquisitions
    packed.Workload.acquisitions

(* The introduction's motivation: under rare contention the fast
   algorithm's winner cost beats the bakery's. *)
let test_fast_beats_bakery_rare_contention () =
  let fast = Workload.run_mutex Registry.lamport_fast (cfg ~think:200 ()) in
  let bakery = Workload.run_mutex Registry.bakery (cfg ~think:200 ()) in
  check_bool "rare contention reached" true
    (fast.Workload.observed_contention < 1.5);
  check_bool
    (Printf.sprintf "fast %.1f < bakery %.1f" fast.Workload.entry_steps_mean
       bakery.Workload.entry_steps_mean)
    true
    (fast.Workload.entry_steps_mean < bakery.Workload.entry_steps_mean)

(* Contention level responds to think time (saturation vs rare). *)
let test_contention_dial () =
  let hot = Workload.run_mutex Registry.lamport_fast (cfg ~think:0 ()) in
  let cold = Workload.run_mutex Registry.lamport_fast (cfg ~think:200 ()) in
  check_bool "dial works" true
    (hot.Workload.observed_contention
    > cold.Workload.observed_contention +. 1.)

(* The sweep helper covers all requested points, in order. *)
let test_sweep_shape () =
  let sweep =
    Workload.contention_sweep Registry.lamport_fast ~n:4 ~rounds:10
      ~thinks:[ 0; 10; 100 ] ~seed:3
  in
  Alcotest.(check (list int)) "think points" [ 0; 10; 100 ]
    (List.map fst sweep);
  List.iter
    (fun (_, r) -> check "acquisitions" 40 r.Workload.acquisitions)
    sweep

(* The think-time stream must be genuinely geometric (memoryless, mean
   [mean]), not a bounded uniform: a uniform draw on [0, 2*mean] can
   never exceed twice the mean, while the geometric tail does so
   routinely, and its empirical mean sits at [mean] rather than below
   it. *)
let test_think_stream_geometric () =
  let mean = 10 in
  let draw = Workload.think_stream ~seed:123 ~pid:0 in
  let n = 100_000 in
  let sum = ref 0 and maxv = ref 0 in
  for _ = 1 to n do
    let v = draw ~mean in
    check_bool "nonnegative" true (v >= 0);
    sum := !sum + v;
    if v > !maxv then maxv := v
  done;
  let emp = float_of_int !sum /. float_of_int n in
  check_bool
    (Printf.sprintf "tail exceeds 3x mean (max %d)" !maxv)
    true (!maxv >= 3 * mean);
  check_bool
    (Printf.sprintf "empirical mean %.2f within 0.2 of %d" emp mean)
    true
    (Float.abs (emp -. float_of_int mean) < 0.2);
  (* Deterministic per (seed, pid); distinct pids decorrelated. *)
  let a = Workload.think_stream ~seed:5 ~pid:1 in
  let b = Workload.think_stream ~seed:5 ~pid:1 in
  let c = Workload.think_stream ~seed:5 ~pid:2 in
  let sa = List.init 50 (fun _ -> a ~mean) in
  let sb = List.init 50 (fun _ -> b ~mean) in
  let sc = List.init 50 (fun _ -> c ~mean) in
  Alcotest.(check (list int)) "same (seed, pid) replays" sa sb;
  check_bool "different pid differs" true (sa <> sc);
  let z = Workload.think_stream ~seed:5 ~pid:0 in
  check "mean 0 is always 0" 0
    (List.fold_left ( + ) 0 (List.init 100 (fun _ -> z ~mean:0)))

(* Regression for the think-stream seeding bug: the per-pid state must
   be [Random.State.make [| Ixmath.mix_seed seed pid |]] — the raw
   [| seed; pid |] pair correlates adjacent pids.  Pinning the exact
   derivation is also the simulated/native parity contract: the native
   Lock_service and Kv_service build their worker streams from the same
   expression, so equality here is equality there. *)
let test_think_stream_split_seeded () =
  let mean = 10 in
  List.iter
    (fun (seed, pid) ->
      let stream = Workload.think_stream ~seed ~pid in
      let st = Random.State.make [| Ixmath.mix_seed seed pid |] in
      let pinned () = Ixmath.geometric ~u:(Random.State.float st 1.0) ~mean in
      for i = 1 to 200 do
        check
          (Printf.sprintf "seed=%d pid=%d draw %d pinned to mix_seed" seed
             pid i)
          (pinned ()) (stream ~mean)
      done)
    [ (42, 0); (42, 1); (7, 63); (123456789, 12) ];
  (* Adjacent-pid streams are pairwise uncorrelated: the Pearson
     coefficient over a long prefix stays near 0.  (With the raw
     [| seed; pid |] seeding this check fails: adjacent states produce
     visibly correlated sequences.) *)
  let len = 4_000 in
  let draws pid =
    let s = Workload.think_stream ~seed:42 ~pid in
    Array.init len (fun _ -> float_of_int (s ~mean))
  in
  let pearson a b =
    let n = float_of_int len in
    let mean x = Array.fold_left ( +. ) 0. x /. n in
    let ma = mean a and mb = mean b in
    let cov = ref 0. and va = ref 0. and vb = ref 0. in
    for i = 0 to len - 1 do
      cov := !cov +. ((a.(i) -. ma) *. (b.(i) -. mb));
      va := !va +. ((a.(i) -. ma) ** 2.);
      vb := !vb +. ((b.(i) -. mb) ** 2.)
    done;
    !cov /. sqrt (!va *. !vb)
  in
  for pid = 0 to 4 do
    let r = pearson (draws pid) (draws (pid + 1)) in
    check_bool
      (Printf.sprintf "pids %d,%d uncorrelated (r=%.4f)" pid (pid + 1) r)
      true
      (Float.abs r < 0.06)
  done

(* rounds = 0 is a legal empty run: zero acquisitions and well-defined
   (non-NaN) statistics. *)
let test_empty_run () =
  let r = Workload.run_mutex Registry.lamport_fast (cfg ~rounds:0 ()) in
  check "no acquisitions" 0 r.Workload.acquisitions;
  check_bool "mean is finite" true (Float.is_finite r.Workload.entry_steps_mean);
  check_bool "contention is finite" true
    (Float.is_finite r.Workload.observed_contention);
  check "max steps" 0 r.Workload.entry_steps_max;
  check "max regs" 0 r.Workload.entry_registers_max

(* Exhausting the step budget must raise, not silently return the
   statistics of a truncated run. *)
let test_stall_raises () =
  match Workload.run_mutex ~max_steps:50 Registry.bakery (cfg ()) with
  | _ -> Alcotest.fail "truncated run reported as a measurement"
  | exception Cfc_core.Adversary.Stalled { alg; acquisitions; max_steps; _ } ->
    check_bool "alg recorded" true (alg = "bakery");
    check "budget recorded" 50 max_steps;
    check_bool "under-count visible" true (acquisitions < 6 * 30)

(* Determinism: same seed, same numbers. *)
let test_deterministic () =
  let a = Workload.run_mutex Registry.lamport_fast (cfg ()) in
  let b = Workload.run_mutex Registry.lamport_fast (cfg ()) in
  check "total steps equal" a.Workload.total_steps b.Workload.total_steps;
  check_bool "means equal" true
    (a.Workload.entry_steps_mean = b.Workload.entry_steps_mean)

(* ------------------------------------------------------------------ *)
(* The O(active-set) scale rig                                          *)
(* ------------------------------------------------------------------ *)

let scfg ?(n = 64) ?(rounds = 2) ?(think = 512) ?(seed = 42) ?(pairs = 0) () =
  { Workload.sc_n = n; sc_rounds = rounds; sc_mean_think = think;
    sc_cs_len = 3; sc_seed = seed; sc_chaos_pairs = pairs }

(* Crash-free: every client completes every cycle, and the monitor saw
   no exclusion violation (run_mutex_scale would have raised).  Kept at
   n = 64: algorithms with unbounded-spin gates (tree-lamport) need
   turns well past the default budget when all of a larger population
   collides during warm-up — scale_bench covers the big n. *)
let test_scale_all_acquisitions_complete () =
  List.iter
    (fun (module A : Mutex_intf.ALG) ->
      let p = Mutex_intf.params 64 in
      if A.supports p then begin
        let r = Workload.run_mutex_scale (module A) (scfg ()) in
        check (A.name ^ " acquisitions") (64 * 2) r.Workload.sr_acquisitions;
        check (A.name ^ " crashes") 0 r.Workload.sr_crashes;
        check (A.name ^ " spawned") 64 r.Workload.sr_spawned
      end)
    Registry.all

(* Chaos: crashes and recoveries happen, clients still finish, and the
   whole result record is reproducible from the seed alone. *)
let test_scale_chaos_deterministic () =
  let sc = scfg ~n:300 ~pairs:300 ~think:1200 () in
  let a = Workload.run_mutex_scale Registry.rec_tas sc in
  let b = Workload.run_mutex_scale Registry.rec_tas sc in
  check_bool "identical result records" true (a = b);
  check_bool "crashes happened" true (a.Workload.sr_crashes > 0);
  check_bool "recoveries happened" true (a.Workload.sr_recoveries > 0);
  check_bool "recovery paths measured" true (a.Workload.sr_recovery_steps_max > 0);
  (* A different seed moves the curve: the plan and think times are
     genuinely seed-driven, not fixed. *)
  let c = Workload.run_mutex_scale Registry.rec_tas (scfg ~n:300 ~pairs:300 ~think:1200 ~seed:43 ()) in
  check_bool "different seed differs" true (a <> c)

(* Chaos over a non-recoverable lock must be rejected up front (a crash
   while holding tas would deadlock the rig). *)
let test_scale_chaos_needs_recovery () =
  match Workload.run_mutex_scale Registry.tas_lock (scfg ~pairs:4 ()) with
  | _ -> Alcotest.fail "chaos accepted on a non-recoverable lock"
  | exception Invalid_argument _ -> ()

(* The O(active-set) claim: simulation cost (wheel turns) is a function
   of the work actually performed, not of virtual time.  Stretching the
   mean think time 64x makes the virtual timeline 64x longer but must
   leave the turn count essentially unchanged, because sleeping clients
   are parked in the calendar queue and the clock jumps over them.
   (sr_live_peak ~ n is expected here — every live client, runnable or
   parked on a timer, holds one heap slot; only finished or never-woken
   processes are free.) *)
let test_scale_cost_independent_of_think () =
  let n = 1000 in
  let run think = Workload.run_mutex_scale Registry.mcs (scfg ~n ~think ()) in
  let short = run 1_000 and long = run 64_000 in
  check "all cycles done (short)" (n * 2) short.Workload.sr_acquisitions;
  check "all cycles done (long)" (n * 2) long.Workload.sr_acquisitions;
  check_bool
    (Printf.sprintf "turns %d vs %d within 2x despite 64x think"
       short.Workload.sr_turns long.Workload.sr_turns)
    true
    (long.Workload.sr_turns < 2 * short.Workload.sr_turns);
  check_bool
    (Printf.sprintf "live peak %d bounded by n=%d" long.Workload.sr_live_peak n)
    true
    (long.Workload.sr_live_peak <= n)

(* ------------------------------------------------------------------ *)
(* YCSB generator                                                       *)
(* ------------------------------------------------------------------ *)

let count_kinds stream n =
  let c = Array.make 4 0 in
  for _ = 1 to n do
    (match Ycsb.next stream with
    | Ycsb.Read _ -> c.(0) <- c.(0) + 1
    | Ycsb.Update _ -> c.(1) <- c.(1) + 1
    | Ycsb.Scan _ -> c.(2) <- c.(2) + 1
    | Ycsb.Rmw _ -> c.(3) <- c.(3) + 1)
  done;
  c

(* Empirical op-kind frequencies of each preset match its declared
   probabilities (seeded, hence deterministic). *)
let test_ycsb_mix_frequencies () =
  let n = 20_000 in
  List.iter
    (fun m ->
      let s = Ycsb.stream ~seed:11 ~client:0 ~nkeys:1000 ~theta:0.6 m in
      let c = count_kinds s n in
      let freq i = float_of_int c.(i) /. float_of_int n in
      List.iteri
        (fun i expect ->
          check_bool
            (Printf.sprintf "mix %s kind %d freq %.3f ~ %.3f" m.Ycsb.mix_name
               i (freq i) expect)
            true
            (Float.abs (freq i -. expect) < 0.01))
        [ m.Ycsb.read; m.Ycsb.update; m.Ycsb.scan; m.Ycsb.rmw ])
    Ycsb.mixes;
  (* C is exactly read-only; E's scans carry the declared length. *)
  let c = Ycsb.stream ~seed:3 ~client:1 ~nkeys:100 ~theta:0.0 Ycsb.mix_c in
  for _ = 1 to 500 do
    match Ycsb.next c with
    | Ycsb.Read _ -> ()
    | _ -> Alcotest.fail "mix C produced a non-read"
  done;
  let e = Ycsb.stream ~seed:3 ~client:1 ~nkeys:100 ~theta:0.0 Ycsb.mix_e in
  for _ = 1 to 500 do
    match Ycsb.next e with
    | Ycsb.Scan (_, len) ->
      check "scan length" Ycsb.mix_e.Ycsb.scan_len len
    | Ycsb.Rmw _ -> ()
    | _ -> Alcotest.fail "mix E produced a non-scan non-rmw"
  done

let test_ycsb_stream_seeding () =
  let take s n = List.init n (fun _ -> Ycsb.next s) in
  let mk client =
    Ycsb.stream ~seed:42 ~client ~nkeys:4096 ~theta:0.99 Ycsb.mix_a
  in
  Alcotest.(check bool)
    "same (seed, client) replays" true
    (take (mk 3) 100 = take (mk 3) 100);
  check_bool "distinct clients differ" true (take (mk 3) 100 <> take (mk 4) 100);
  (* The op stream is salted away from the think stream: a client's key
     draws must not replay its think-time uniform draws. *)
  let ops = mk 5 in
  let think = Workload.think_stream ~seed:42 ~pid:5 in
  let keys = List.init 100 (fun _ -> Ycsb.key_of (Ycsb.next ops)) in
  let thinks = List.init 100 (fun _ -> think ~mean:50) in
  check_bool "op stream disjoint from think stream" true (keys <> thinks);
  (* Zipf head: at theta = 0.99 the hottest rank dominates the coldest. *)
  let z = Ycsb.stream ~seed:9 ~client:0 ~nkeys:64 ~theta:0.99 Ycsb.mix_c in
  let hot = ref 0 and cold = ref 0 in
  for _ = 1 to 10_000 do
    match Ycsb.key_of (Ycsb.next z) with
    | 0 -> incr hot
    | 63 -> incr cold
    | _ -> ()
  done;
  check_bool
    (Printf.sprintf "rank 0 (%d) >> rank 63 (%d)" !hot !cold)
    true
    (!hot > 10 * max 1 !cold);
  match Ycsb.stream ~seed:1 ~client:0 ~nkeys:0 ~theta:0.0 Ycsb.mix_a with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "nkeys=0 accepted"

(* Streams share one Zipf table per (nkeys, theta) through a one-entry
   domain-local memo.  Alternating theta between consecutive [stream]
   calls misses it every time; each stream must still replay exactly
   the ops of the same client's stream built on a fresh domain where
   only its theta was ever used. *)
let test_ycsb_zipf_memo_alternating () =
  let thetas = [| 0.99; 0.0; 0.6 |] in
  let theta_of client = thetas.(client mod Array.length thetas) in
  let take s = List.init 200 (fun _ -> Ycsb.next s) in
  let ops client theta =
    take (Ycsb.stream ~seed:42 ~client ~nkeys:512 ~theta Ycsb.mix_a)
  in
  let clients = List.init 12 Fun.id in
  let alternating = List.map (fun c -> (c, ops c (theta_of c))) clients in
  let single theta =
    Domain.join
      (Domain.spawn (fun () ->
           List.filter_map
             (fun c ->
               if Float.equal (theta_of c) theta then Some (c, ops c theta)
               else None)
             clients))
  in
  let reference = Array.to_list thetas |> List.concat_map single in
  List.iter
    (fun (c, got) ->
      check_bool
        (Printf.sprintf "client %d theta %.2f replays" c (theta_of c))
        true
        (got = List.assoc c reference))
    alternating

(* ------------------------------------------------------------------ *)
(* The sharded KV service on the wheel                                  *)
(* ------------------------------------------------------------------ *)

let kcfg ?(clients = 32) ?(buckets = 8) ?(keys = 1024) ?(ops = 6)
    ?(think = 128) ?(theta = 0.99) ?(mix = Ycsb.mix_a) ?(seed = 42) () =
  { Kv_sim.kc_clients = clients; kc_buckets = buckets; kc_keys = keys;
    kc_ops = ops; kc_mean_think = think; kc_theta = theta; kc_mix = mix;
    kc_seed = seed }

(* Every op completes as a monitored lock acquisition on its shard, the
   per-shard tallies add up, and both witnesses come out clean — across
   a spread of registry locks and all four mixes. *)
let test_kv_complete_and_clean () =
  List.iter
    (fun alg ->
      let (module A : Mutex_intf.ALG) = alg in
      List.iter
        (fun mix ->
          let r = Kv_sim.run alg (kcfg ~mix ()) in
          let label s = Printf.sprintf "%s/%s %s" A.name mix.Ycsb.mix_name s in
          check (label "ops") (32 * 6) r.Kv_sim.kr_ops;
          check (label "acquisitions") r.Kv_sim.kr_ops r.Kv_sim.kr_acquisitions;
          check (label "lost updates") 0 r.Kv_sim.kr_lost_updates;
          check (label "torn scans") 0 r.Kv_sim.kr_torn_scans;
          check (label "spawned") 32 r.Kv_sim.kr_spawned;
          let shard_ops =
            Array.fold_left (fun acc s -> acc + s.Kv_sim.ss_ops) 0
              r.Kv_sim.kr_shards
          in
          check (label "shard ops sum") r.Kv_sim.kr_ops shard_ops;
          Array.iter
            (fun s ->
              check (label "kind sum")
                s.Kv_sim.ss_ops
                (let k = s.Kv_sim.ss_kinds in
                 Kv_client.(k.reads + k.updates + k.scans + k.rmws));
              check (label "per-shard acq = ops") s.Kv_sim.ss_ops
                s.Kv_sim.ss_acquisitions)
            r.Kv_sim.kr_shards)
        Ycsb.mixes)
    [ Registry.mcs; Registry.tas_lock; Registry.lamport_fast ]

(* The lost-update audit reads the rig's own version registers, not any
   register whose name looks like one: a lock that allocates a register
   named like the first bucket's version counter changes nothing. *)
module Decoy_lock : Mutex_intf.ALG = struct
  include (val Registry.mcs : Mutex_intf.ALG)

  let name = "mcs-lock+decoy"

  module Make (M : Cfc_base.Mem_intf.MEM) = struct
    module L = Make (M)

    type t = { lock : L.t; _decoy : M.reg }

    let create p =
      let lock = L.create p in
      { lock; _decoy = M.alloc ~name:"kv.ver[0]" ~width:32 ~init:7 () }

    let lock t ~me = L.lock t.lock ~me
    let unlock t ~me = L.unlock t.lock ~me
  end
end

let test_kv_audit_ignores_names () =
  let kc = kcfg ~buckets:4 () in
  let plain = Kv_sim.run Registry.mcs kc in
  let decoy = Kv_sim.run (module Decoy_lock) kc in
  check "no lost update" 0 decoy.Kv_sim.kr_lost_updates;
  check "no torn scan" 0 decoy.Kv_sim.kr_torn_scans;
  check "same ops" plain.Kv_sim.kr_ops decoy.Kv_sim.kr_ops;
  check "same acquisitions" plain.Kv_sim.kr_acquisitions
    decoy.Kv_sim.kr_acquisitions

let test_kv_deterministic () =
  let kc = kcfg ~mix:Ycsb.mix_e () in
  let a = Kv_sim.run Registry.mcs kc in
  let b = Kv_sim.run Registry.mcs kc in
  check_bool "identical result records" true (a = b);
  let c = Kv_sim.run Registry.mcs { kc with Kv_sim.kc_seed = 43 } in
  check_bool "different seed differs" true (a <> c)

(* The Zipf dial reaches the service: a skewed key space concentrates
   traffic on the hottest shard. *)
let test_kv_theta_hot_share () =
  let run theta =
    Kv_sim.run Registry.mcs
      (kcfg ~clients:64 ~ops:64 ~buckets:16 ~keys:4096 ~think:64 ~theta ())
  in
  let uniform = run 0.0 and skewed = run 0.99 in
  check_bool
    (Printf.sprintf "hot share %.3f (theta=0.99) > %.3f (theta=0)"
       skewed.Kv_sim.kr_hot_share uniform.Kv_sim.kr_hot_share)
    true
    (skewed.Kv_sim.kr_hot_share > uniform.Kv_sim.kr_hot_share)

let test_kv_rejects () =
  (match Kv_sim.run Registry.mcs (kcfg ~clients:1 ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "clients=1 accepted");
  match Kv_sim.run Registry.mcs (kcfg ~keys:0 ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "keys=0 accepted"

(* The wheel rigs share one driving tail: an exhausted turn budget raises
   Stalled with the budget and the rig's own acquisition count (entry
   windows completed for the scale rig, the attempted ops for the KV
   rig) instead of returning a truncated measurement. *)
let test_wheel_stall_raises () =
  let stalled what f =
    match f () with
    | _ -> Alcotest.failf "%s: truncated run reported as a measurement" what
    | exception
        Cfc_core.Adversary.Stalled { alg; acquisitions; max_steps; stopped } ->
      check_bool (what ^ " alg recorded") true (alg = "mcs-lock");
      check (what ^ " budget recorded") 40 max_steps;
      check_bool (what ^ " stopped out of steps") true
        (stopped = Cfc_runtime.Runner.Out_of_steps);
      acquisitions
  in
  let scale =
    stalled "scale" (fun () ->
        Workload.run_mutex_scale ~max_turns:40 Registry.mcs (scfg ~think:0 ()))
  in
  check_bool "scale under-count visible" true (scale < 64 * 2);
  check "kv reports the attempted ops" (32 * 6)
    (stalled "kv" (fun () -> Kv_sim.run ~max_turns:40 Registry.mcs (kcfg ())))

let () =
  Alcotest.run "cfc_workload"
    [ ( "workload",
        [ Alcotest.test_case "all acquisitions complete" `Quick
            test_all_acquisitions_complete;
          Alcotest.test_case "winner near contention-free (§4)" `Quick
            test_winner_near_cf;
          Alcotest.test_case "backoff reduces traffic (§4)" `Quick
            test_backoff_reduces_traffic;
          Alcotest.test_case "packed variant matches plain cf cost (MS93)"
            `Quick test_packed_same_cf;
          Alcotest.test_case "fast beats bakery when contention rare" `Quick
            test_fast_beats_bakery_rare_contention;
          Alcotest.test_case "contention dial" `Quick test_contention_dial;
          Alcotest.test_case "sweep shape" `Quick test_sweep_shape;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "think stream is geometric" `Quick
            test_think_stream_geometric;
          Alcotest.test_case "think stream split-seeding (regression)" `Quick
            test_think_stream_split_seeded;
          Alcotest.test_case "empty run is well-defined" `Quick
            test_empty_run;
          Alcotest.test_case "step-budget exhaustion raises" `Quick
            test_stall_raises ] );
      ( "scale",
        [ Alcotest.test_case "all acquisitions complete (wheel)" `Quick
            test_scale_all_acquisitions_complete;
          Alcotest.test_case "chaos deterministic in the seed" `Quick
            test_scale_chaos_deterministic;
          Alcotest.test_case "chaos requires a recoverable lock" `Quick
            test_scale_chaos_needs_recovery;
          Alcotest.test_case "cost independent of think time" `Quick
            test_scale_cost_independent_of_think;
          Alcotest.test_case "turn-budget exhaustion raises (scale, kv)"
            `Quick test_wheel_stall_raises ] );
      ( "ycsb",
        [ Alcotest.test_case "mix frequencies" `Quick
            test_ycsb_mix_frequencies;
          Alcotest.test_case "stream seeding" `Quick test_ycsb_stream_seeding;
          Alcotest.test_case "zipf memo: alternating theta replays" `Quick
            test_ycsb_zipf_memo_alternating ] );
      ( "kv",
        [ Alcotest.test_case "complete and witness-clean" `Quick
            test_kv_complete_and_clean;
          Alcotest.test_case "deterministic in the seed" `Quick
            test_kv_deterministic;
          Alcotest.test_case "lost-update audit ignores register names"
            `Quick test_kv_audit_ignores_names;
          Alcotest.test_case "zipf skew concentrates the hot shard" `Quick
            test_kv_theta_hot_share;
          Alcotest.test_case "bad dimensions rejected" `Quick
            test_kv_rejects ] ) ]
