(* Tests for the native Atomic/Domain backend: semantic equivalence with
   the simulated backend, and real-parallelism smoke tests (mutual
   exclusion via a lost-update counter, naming uniqueness). *)

open Cfc_base
open Cfc_mutex

let check_bool = Alcotest.(check bool)
let check = Alcotest.(check int)

(* The native MEM implements the same register semantics. *)
let test_native_register_semantics () =
  let module M = (val Cfc_native.Native_mem.mem ()) in
  let r = M.alloc ~width:4 ~init:3 () in
  check "init" 3 (M.read r);
  M.write r 15;
  check "write" 15 (M.read r);
  (match M.write r 16 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "width overflow accepted");
  let b = M.alloc_bit ~model:Model.rmw ~init:0 () in
  check "tas" 0 (Option.get (M.bit_op b Ops.Test_and_set));
  check "tas again" 1 (Option.get (M.bit_op b Ops.Test_and_set));
  check "taf" 1 (Option.get (M.bit_op b Ops.Test_and_flip));
  check "read bit" 0 (M.read b);
  let restricted = M.alloc_bit ~model:Model.tas_only ~init:0 () in
  match M.read restricted with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "model not enforced natively"

(* The word-level primitives match their simulated semantics. *)
let test_native_word_rmw () =
  let module M = (val Cfc_native.Native_mem.mem ()) in
  let r = M.alloc ~width:8 ~init:5 () in
  check "xchg returns old" 5 (M.fetch_and_store r 9);
  check "xchg stored" 9 (M.read r);
  check_bool "cas hit" true (M.compare_and_set r ~expected:9 3);
  check_bool "cas miss" false (M.compare_and_set r ~expected:9 7);
  check "cas result" 3 (M.read r);
  let w = M.alloc ~width:8 ~init:0 () in
  M.write_field w ~index:0 ~width:2 3;
  M.write_field w ~index:3 ~width:2 2;
  check "packed" 131 (M.read w);
  match M.write_field w ~index:3 ~width:3 1 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "out-of-range field accepted natively"

(* Single-domain lock/unlock works and is fast enough to time. *)
let test_uncontended_smoke () =
  List.iter
    (fun alg ->
      let (module A : Mutex_intf.ALG) = alg in
      let p = Mutex_intf.params 4 in
      if A.supports p then begin
        let ns = Cfc_native.Native_harness.uncontended_ns ~iters:1000 alg p in
        check_bool (A.name ^ " positive time") true (ns > 0.)
      end)
    Registry.all

(* Real parallelism: 2-4 domains, no lost updates in the critical
   section for any algorithm. *)
let test_contended_exclusion () =
  let domains = min 4 (max 2 (Domain.recommended_domain_count () - 1)) in
  List.iter
    (fun alg ->
      let (module A : Mutex_intf.ALG) = alg in
      let p = Mutex_intf.params domains in
      if A.supports p then begin
        let _ns, ok =
          Cfc_native.Native_harness.contended ~iters:2_000 ~domains alg p
        in
        check_bool (A.name ^ " no lost updates") true ok
      end)
    Registry.all

(* Naming on domains: unique names every time. *)
let test_native_naming () =
  List.iter
    (fun alg ->
      let (module A : Cfc_naming.Naming_intf.ALG) = alg in
      List.iter
        (fun n ->
          if A.supports ~n then begin
            let _ns, ok =
              Cfc_native.Native_harness.naming_ns ~repeats:20 alg ~n
            in
            check_bool (Printf.sprintf "%s n=%d unique" A.name n) true ok
          end)
        [ 4; 16 ])
    Cfc_naming.Registry.all

(* The shape result that motivates the paper: on this machine, the
   uncontended latency of the fast algorithm beats the bakery's by a
   growing margin as n grows. *)
let test_fast_beats_bakery_shape () =
  let fast_small =
    Cfc_native.Native_harness.uncontended_ns ~iters:5_000
      Registry.lamport_fast (Mutex_intf.params 4)
  and fast_big =
    Cfc_native.Native_harness.uncontended_ns ~iters:5_000
      Registry.lamport_fast (Mutex_intf.params 256)
  and bakery_big =
    Cfc_native.Native_harness.uncontended_ns ~iters:5_000 Registry.bakery
      (Mutex_intf.params 256)
  in
  (* Lamport is O(1) in n: allow 4x jitter.  Bakery at n=256 does ~770
     accesses vs Lamport's 7: demand at least a 5x gap (very lax; it is
     typically 50-100x). *)
  check_bool "lamport flat in n" true (fast_big < 4. *. fast_small +. 100.);
  check_bool "bakery much slower at n=256" true (bakery_big > 5. *. fast_big)

(* ------------------------------------------------------------------ *)
(* Instrumented memory, latency histograms, lock service               *)
(* ------------------------------------------------------------------ *)

(* The simulated twin of a solo lock-service run: the instrumented
   native counters must reproduce its trace-computed numbers exactly. *)
let sim_solo_counters (module A : Mutex_intf.ALG) ~rounds ~cs_len =
  let open Cfc_runtime in
  let p = Mutex_intf.params 2 in
  let memory = Memory.create () in
  let module M = (val Sim_mem.mem memory) in
  let module L = A.Make (M) in
  let inst = L.create p in
  let scratch = M.alloc ~name:"svc.scratch" ~width:8 ~init:0 () in
  let proc0 () =
    for _ = 1 to rounds do
      L.lock inst ~me:0;
      for k = 1 to cs_len do
        M.write scratch (k land 255)
      done;
      L.unlock inst ~me:0
    done
  in
  let out =
    Runner.run ~memory ~pick:(Schedule.solo 0) [| proc0; (fun () -> ()) |]
  in
  let online = Cfc_core.Measures.Online.of_trace ~nprocs:2 out.Runner.trace in
  let s = Cfc_core.Measures.Online.process_total online ~pid:0 in
  (s.Cfc_core.Measures.steps, s.Cfc_core.Measures.read_steps,
   s.Cfc_core.Measures.write_steps,
   Cfc_core.Measures.Online.remote online ~pid:0)

(* Uncontended, the instrumented counters are not estimates: ops, reads,
   writes and the write-invalidate RMR count must equal the simulated
   solo run's trace measures for every registry algorithm. *)
let test_instr_matches_sim_solo () =
  let rounds = 40 and cs_len = 3 in
  List.iter
    (fun (module A : Mutex_intf.ALG) ->
      if A.supports (Mutex_intf.params 2) then begin
        let r =
          Cfc_native.Lock_service.run
            (module A)
            { Cfc_native.Lock_service.domains = 1; rounds; mean_think = 0;
              cs_len; seed = 1; crash_every = 0 }
        in
        let c = r.Cfc_native.Lock_service.counters in
        let steps, reads, writes, rmr =
          sim_solo_counters (module A) ~rounds ~cs_len
        in
        check (A.name ^ " ops = sim steps") steps c.Cfc_native.Instr_mem.ops;
        check (A.name ^ " reads") reads c.Cfc_native.Instr_mem.reads;
        check (A.name ^ " writes") writes c.Cfc_native.Instr_mem.writes;
        check (A.name ^ " rmr = sim remote") rmr c.Cfc_native.Instr_mem.rmr;
        check (A.name ^ " ops split") c.Cfc_native.Instr_mem.ops
          (c.Cfc_native.Instr_mem.reads + c.Cfc_native.Instr_mem.writes);
        check_bool (A.name ^ " exclusion") true
          r.Cfc_native.Lock_service.exclusion_ok
      end)
    Registry.all

(* Counter semantics on hand-driven accesses: the failed CAS is a read,
   bit ops classify by Ops.writes, and the RMR mask behaves like the
   YA93 model (second read local, invalidation makes it remote again). *)
let test_instr_counter_semantics () =
  let t = Cfc_native.Instr_mem.create ~nprocs:2 in
  let module M = (val Cfc_native.Instr_mem.mem t) in
  Cfc_native.Instr_mem.register_worker t ~me:0;
  let r = M.alloc ~width:8 ~init:5 () in
  check "read" 5 (M.read r);
  check "read again" 5 (M.read r);
  M.write r 7;
  check_bool "cas miss" false (M.compare_and_set r ~expected:9 3);
  check_bool "cas hit" true (M.compare_and_set r ~expected:7 3);
  let c = (Cfc_native.Instr_mem.per_domain t).(0) in
  check "ops" 5 c.Cfc_native.Instr_mem.ops;
  (* 2 reads + failed CAS *)
  check "reads" 3 c.Cfc_native.Instr_mem.reads;
  (* write + successful CAS *)
  check "writes" 2 c.Cfc_native.Instr_mem.writes;
  check "cas attempts" 2 c.Cfc_native.Instr_mem.cas_attempts;
  check "cas failures" 1 c.Cfc_native.Instr_mem.cas_failures;
  (* First read remote, second local; own write/CAS keep the copy
     valid: exactly 1 remote reference. *)
  check "rmr" 1 c.Cfc_native.Instr_mem.rmr;
  (* A write by the other worker invalidates worker 0's copy. *)
  Cfc_native.Instr_mem.register_worker t ~me:1;
  M.write r 1;
  Cfc_native.Instr_mem.register_worker t ~me:0;
  check "reread" 1 (M.read r);
  let c0 = (Cfc_native.Instr_mem.per_domain t).(0) in
  check "rmr after invalidation" 2 c0.Cfc_native.Instr_mem.rmr;
  let c1 = (Cfc_native.Instr_mem.per_domain t).(1) in
  check "other worker's write was remote" 1 c1.Cfc_native.Instr_mem.rmr;
  (* Unregistered domains are rejected, not misattributed. *)
  let t2 = Cfc_native.Instr_mem.create ~nprocs:2 in
  let module M2 = (val Cfc_native.Instr_mem.mem t2) in
  let r2 = M2.alloc ~width:4 ~init:0 () in
  match M2.read r2 with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "unregistered access accepted"

let test_latency_hist () =
  let open Cfc_native.Latency_hist in
  let h = create () in
  check "empty count" 0 (count h);
  check "empty max" 0 (max_ns h);
  check_bool "empty percentile" true (percentile h 0.5 = 0.0);
  for _ = 1 to 1000 do
    record h 100
  done;
  check "count" 1000 (count h);
  check "max" 100 (max_ns h);
  (* Constant distribution: every percentile in the same bucket, within
     a factor sqrt 2 of the true value. *)
  List.iter
    (fun q ->
      let v = percentile h q in
      check_bool
        (Printf.sprintf "p%.0f=%.0f near 100" (100. *. q) v)
        true
        (v >= 100. /. sqrt 2. && v <= 100. *. sqrt 2.))
    [ 0.5; 0.9; 0.99; 1.0 ];
  (* Spread distribution: percentiles are monotone and below max. *)
  let s = create () in
  List.iter (record s) [ 10; 20; 40; 80; 5000; 10_000; 100_000; 1 ];
  let p50 = percentile s 0.5 and p90 = percentile s 0.9 in
  let p99 = percentile s 0.99 in
  check_bool "p50 <= p90" true (p50 <= p90);
  check_bool "p90 <= p99" true (p90 <= p99);
  check_bool "p99 <= max" true (p99 <= float_of_int (max_ns s));
  let m = create () in
  merge_into ~into:m h;
  merge_into ~into:m s;
  check "merged count" 1008 (count m);
  check "merged max" 100_000 (max_ns m);
  check "merged min" 1 (min_ns m)

(* Regression for the percentile envelope: the bucket midpoint is only
   accurate to sqrt 2, so a single-sample histogram used to report
   percentiles off the sample in both directions (midpoint 768 for a
   sample of 1023; the max-clamp alone still allowed undershoot).  Every
   percentile of a single-sample histogram must be the sample, exactly,
   and on any histogram the reported value must stay inside the observed
   [min_ns, max_ns] envelope. *)
let test_latency_hist_percentile_envelope () =
  let open Cfc_native.Latency_hist in
  (* 1023 sits at the very top of bucket 9 (midpoint 768): without the
     min-clamp p100 undershoots; 1025 sits at the very bottom of bucket
     10 (midpoint 1536): without the max-clamp p100 overshoots. *)
  List.iter
    (fun sample ->
      let h = create () in
      record h sample;
      check "single-sample min" sample (min_ns h);
      check "single-sample max" sample (max_ns h);
      List.iter
        (fun q ->
          Alcotest.(check (float 0.))
            (Printf.sprintf "sample %d p%.0f exact" sample (100. *. q))
            (float_of_int sample) (percentile h q))
        [ 0.0; 0.5; 0.99; 1.0 ])
    [ 0; 1; 2; 3; 100; 1023; 1024; 1025; 999_999 ];
  (* Two-point histograms: every percentile within the envelope. *)
  let h = create () in
  record h 1023;
  record h 1025;
  List.iter
    (fun q ->
      let v = percentile h q in
      check_bool
        (Printf.sprintf "p%.0f=%.1f inside [1023, 1025]" (100. *. q) v)
        true
        (v >= 1023. && v <= 1025.))
    [ 0.0; 0.5; 0.9; 1.0 ];
  check "min tracked" 1023 (min_ns h);
  (* Negative samples clamp to 0 and stay representable. *)
  let n = create () in
  record n (-5);
  check "clamped min" 0 (min_ns n);
  Alcotest.(check (float 0.)) "clamped percentile" 0.0 (percentile n 1.0)

(* The off switch is the plain backend: a run without instrumentation
   still measures time and exclusion but reports all-zero counters. *)
let test_lock_service_passthrough () =
  let r =
    Cfc_native.Lock_service.run ~instrument:false Registry.mcs
      { Cfc_native.Lock_service.domains = 1; rounds = 200; mean_think = 0;
        cs_len = 3; seed = 7; crash_every = 0 }
  in
  check "acquisitions" 200 r.Cfc_native.Lock_service.acquisitions;
  check_bool "exclusion" true r.Cfc_native.Lock_service.exclusion_ok;
  check_bool "throughput measured" true
    (r.Cfc_native.Lock_service.throughput > 0.0);
  check "no counters" 0
    r.Cfc_native.Lock_service.counters.Cfc_native.Instr_mem.ops;
  check_bool "rmr/acq zero" true
    (r.Cfc_native.Lock_service.rmr_per_acq = 0.0)

(* Real domains under contention: exclusion witnessed, histogram filled,
   per-domain counters all active. *)
let test_lock_service_contended () =
  let domains = min 4 (max 2 (Domain.recommended_domain_count () - 1)) in
  let rounds = 500 in
  List.iter
    (fun (module A : Mutex_intf.ALG) ->
      if A.supports (Mutex_intf.params (max 2 domains)) then begin
        let r =
          Cfc_native.Lock_service.run
            (module A)
            { Cfc_native.Lock_service.domains; rounds; mean_think = 5;
              cs_len = 3; seed = 3; crash_every = 0 }
        in
        check (A.name ^ " acquisitions") (domains * rounds)
          r.Cfc_native.Lock_service.acquisitions;
        check_bool (A.name ^ " exclusion held") true
          r.Cfc_native.Lock_service.exclusion_ok;
        check_bool (A.name ^ " latency ordered") true
          (r.Cfc_native.Lock_service.p50_ns
           <= r.Cfc_native.Lock_service.p99_ns
          && r.Cfc_native.Lock_service.p99_ns
             <= float_of_int r.Cfc_native.Lock_service.max_ns);
        (* Every acquisition writes the CS scratch cs_len times, so each
           domain's write counter is at least rounds * cs_len. *)
        check_bool (A.name ^ " ops counted") true
          (r.Cfc_native.Lock_service.counters.Cfc_native.Instr_mem.writes
           >= domains * rounds * 3)
      end)
    Registry.all

(* Crash injection: every recoverable registry lock, solo and contended.
   Solo the recovery path is a fixed access sequence and the crash
   evicts the domain's cache bits, so the instrumented per-recovery RMR
   must equal the rec_registers_held closed form exactly — the native
   end of the static = predicted = measured chain.  Under contention it
   may only grow conservatively, never violate exclusion. *)
let test_lock_service_crash_injection () =
  List.iter
    (fun ((module A : Mutex_intf.ALG) as alg) ->
      let forms = Option.get (A.recovery (Mutex_intf.params 2)) in
      let r =
        Cfc_native.Lock_service.run alg
          { Cfc_native.Lock_service.domains = 1; rounds = 400;
            mean_think = 0; cs_len = 2; seed = 9; crash_every = 4 }
      in
      check_bool (A.name ^ " solo exclusion under crashes") true
        r.Cfc_native.Lock_service.exclusion_ok;
      check_bool (A.name ^ " recoveries injected") true
        (r.Cfc_native.Lock_service.recoveries > 0);
      check
        (A.name ^ " solo recovery rmr max = closed form")
        forms.Mutex_intf.rec_registers_held
        r.Cfc_native.Lock_service.recovery_rmr_max;
      check_bool
        (A.name ^ " solo recovery rmr mean = closed form")
        true
        (r.Cfc_native.Lock_service.recovery_rmr_mean
        = float_of_int forms.Mutex_intf.rec_registers_held);
      let domains = min 4 (max 2 (Domain.recommended_domain_count () - 1)) in
      let rc =
        Cfc_native.Lock_service.run alg
          { Cfc_native.Lock_service.domains; rounds = 400; mean_think = 2;
            cs_len = 2; seed = 9; crash_every = 4 }
      in
      check_bool (A.name ^ " contended exclusion under crashes") true
        rc.Cfc_native.Lock_service.exclusion_ok;
      check_bool (A.name ^ " contended recoveries injected") true
        (rc.Cfc_native.Lock_service.recoveries > 0))
    Registry.recoverable;
  (* A non-recoverable lock must be rejected, not deadlocked. *)
  check_bool "crash injection rejected for mcs" true
    (match
       Cfc_native.Lock_service.run Registry.mcs
         { Cfc_native.Lock_service.domains = 1; rounds = 10; mean_think = 0;
           cs_len = 1; seed = 1; crash_every = 2 }
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* The recoverable queue's packed-word cap must fail identically on the
   native arena: the check lives in the algorithm, so a direct [create]
   at n = 16 names "recoverable-queue" and the n <= 15 cap instead of
   surfacing a bare Native_mem width error (the sim twin of this test is
   in test_mutex). *)
let test_rec_queue_cap_native () =
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i =
      i + ln <= lh && (String.sub hay i ln = needle || go (i + 1))
    in
    go 0
  in
  let (module Q : Mutex_intf.ALG) =
    Option.get (Registry.find "recoverable-queue")
  in
  let module M = (val Cfc_native.Native_mem.mem ()) in
  let module L = Q.Make (M) in
  ignore (L.create (Mutex_intf.params 15));
  match L.create (Mutex_intf.params 16) with
  | exception Invalid_argument msg ->
      check_bool "error names the algorithm" true
        (contains msg "recoverable-queue");
      check_bool "error states the cap" true (contains msg "n <= 15")
  | _ -> Alcotest.fail "create past the packing cap was accepted natively"

(* Sharded KV smoke: real domains against the bucketed store, mix A
   (update-heavy, exercises the lost-update witness) and mix E
   (scan-heavy, exercises the torn-snapshot witness).  Both witnesses
   must come out clean, every op must land on exactly one shard, and
   the per-shard kind counts must re-sum to the totals. *)
let test_kv_service_smoke () =
  let domains = 2 in
  let ops = 300 in
  List.iter
    (fun (mix_name, mix) ->
      let r =
        Cfc_native.Kv_service.run Registry.mcs
          { Cfc_native.Kv_service.domains; buckets = 8; keys = 1 lsl 12;
            ops; mean_think = 2; theta = 0.99; mix; seed = 11 }
      in
      let open Cfc_native.Kv_service in
      check (mix_name ^ " total ops") (domains * ops) r.total_ops;
      check_bool (mix_name ^ " exclusion") true r.exclusion_ok;
      check (mix_name ^ " lost updates") 0 r.lost_updates;
      check (mix_name ^ " torn scans") 0 r.torn_scans;
      check (mix_name ^ " shards") 8 (Array.length r.shards);
      let sum f = Array.fold_left (fun a s -> a + f s) 0 r.shards in
      check (mix_name ^ " shard ops resum") r.total_ops
        (sum (fun s -> s.ks_ops));
      check (mix_name ^ " shard kinds resum") r.total_ops
        (sum (fun s -> s.ks_reads + s.ks_updates + s.ks_scans + s.ks_rmws));
      check_bool (mix_name ^ " latency ordered") true
        (r.p50_ns <= r.p99_ns && r.p99_ns <= float_of_int r.max_ns);
      check_bool (mix_name ^ " counters active") true
        (r.counters.Cfc_native.Instr_mem.ops > 0);
      check_bool (mix_name ^ " hot share sane") true
        (r.hot_share > 0.0 && r.hot_share <= 1.0))
    [ ("mix A", Cfc_workload.Ycsb.mix_a); ("mix E", Cfc_workload.Ycsb.mix_e) ];
  (* Uninstrumented path: witnesses still run, counters stay zero. *)
  let r =
    Cfc_native.Kv_service.run ~instrument:false Registry.mcs
      { Cfc_native.Kv_service.domains; buckets = 4; keys = 1 lsl 10;
        ops = 200; mean_think = 0; theta = 0.0;
        mix = Cfc_workload.Ycsb.mix_a; seed = 5 }
  in
  check_bool "passthrough exclusion" true
    r.Cfc_native.Kv_service.exclusion_ok;
  check "passthrough counters" 0
    r.Cfc_native.Kv_service.counters.Cfc_native.Instr_mem.ops;
  check_bool "passthrough rmr zero" true
    (r.Cfc_native.Kv_service.rmr_per_op = 0.0)

let () =
  Alcotest.run "cfc_native"
    [ ( "semantics",
        [ Alcotest.test_case "register semantics" `Quick
            test_native_register_semantics;
          Alcotest.test_case "word rmw + fields" `Quick
            test_native_word_rmw;
          Alcotest.test_case "rec-queue packing cap (native)" `Quick
            test_rec_queue_cap_native ] );
      ( "parallel",
        [ Alcotest.test_case "uncontended smoke" `Quick
            test_uncontended_smoke;
          Alcotest.test_case "contended exclusion" `Slow
            test_contended_exclusion;
          Alcotest.test_case "native naming" `Slow test_native_naming ] );
      ( "shape",
        [ Alcotest.test_case "fast beats bakery" `Slow
            test_fast_beats_bakery_shape ] );
      ( "lock-service",
        [ Alcotest.test_case "instrumented rmr equals sim solo" `Quick
            test_instr_matches_sim_solo;
          Alcotest.test_case "counter semantics" `Quick
            test_instr_counter_semantics;
          Alcotest.test_case "latency histogram" `Quick test_latency_hist;
          Alcotest.test_case "percentile envelope" `Quick
            test_latency_hist_percentile_envelope;
          Alcotest.test_case "passthrough when off" `Quick
            test_lock_service_passthrough;
          Alcotest.test_case "contended service" `Slow
            test_lock_service_contended;
          Alcotest.test_case "crash injection (recoverable locks)" `Slow
            test_lock_service_crash_injection ] );
      ( "kv-service",
        [ Alcotest.test_case "sharded smoke + witnesses" `Slow
            test_kv_service_smoke ] ) ]
