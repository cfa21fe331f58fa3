(* Tests for the mutual exclusion algorithms and their measured
   complexities: exact contention-free counts (the numbers the paper's
   upper-bound theorems are built from), safety under randomized and
   adversarial schedules, atomicity accounting, and the contention
   detectors. *)

open Cfc_base
open Cfc_mutex
open Cfc_core

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let alg_name (module A : Mutex_intf.ALG) = A.name

(* ------------------------------------------------------------------ *)
(* Exact contention-free complexity                                    *)
(* ------------------------------------------------------------------ *)

(* Every algorithm's measured contention-free sample must match its
   predicted closed form, for every process, across a grid of (n, l). *)
let test_cf_exact () =
  let grid = [ (1, None); (2, None); (3, None); (5, None); (8, None);
               (16, None); (33, None);
               (8, Some 2); (16, Some 2); (16, Some 3); (64, Some 3);
               (64, Some 6); (100, Some 4); (128, Some 2) ]
  in
  List.iter
    (fun (module A : Mutex_intf.ALG) ->
      List.iter
        (fun (n, l) ->
          let p = Mutex_intf.params ?l n in
          if A.supports p then begin
            let r = Mutex_harness.contention_free (module A) p in
            let ctx =
              Printf.sprintf "%s n=%d l=%d" A.name n p.Mutex_intf.l
            in
            (match A.predicted_cf_steps p with
            | Some s -> check (ctx ^ " cf steps") s r.Mutex_harness.max.Measures.steps
            | None -> ());
            (match A.predicted_cf_registers p with
            | Some s ->
              check (ctx ^ " cf registers") s
                r.Mutex_harness.max.Measures.registers
            | None -> ());
            (* The prediction is the max over processes; also check every
               process individually matches (these algorithms are
               symmetric in cost). *)
            Array.iteri
              (fun me s ->
                match A.predicted_cf_steps p with
                | Some expect ->
                  check
                    (Printf.sprintf "%s p%d steps" ctx me)
                    expect s.Measures.steps
                | None -> ())
              r.Mutex_harness.per_process
          end)
        grid)
    Registry.all

(* The declared atomicity matches the widest register actually used. *)
let test_atomicity_observed () =
  List.iter
    (fun (module A : Mutex_intf.ALG) ->
      List.iter
        (fun (n, l) ->
          let p = Mutex_intf.params ?l n in
          if A.supports p then begin
            let r = Mutex_harness.contention_free (module A) p in
            check
              (Printf.sprintf "%s n=%d l=%d atomicity" A.name n p.Mutex_intf.l)
              r.Mutex_harness.atomicity_declared
              r.Mutex_harness.atomicity_observed
          end)
        [ (2, None); (8, None); (8, Some 2); (64, Some 3); (16, Some 4) ])
    Registry.all

(* Lamport's exact shape: 5-step entry, 2-step exit, 3 registers, and the
   read/write split (2 reads, 5 writes). *)
let test_lamport_shape () =
  let p = Mutex_intf.params 8 in
  let r = Mutex_harness.contention_free Registry.lamport_fast p in
  let s = r.Mutex_harness.max in
  check "steps" 7 s.Measures.steps;
  check "registers" 3 s.Measures.registers;
  check "read steps" 2 s.Measures.read_steps;
  check "write steps" 5 s.Measures.write_steps;
  check "read registers" 2 s.Measures.read_registers;
  check "write registers" 3 s.Measures.write_registers

(* Tree depth arithmetic: the measured step count follows 7·⌈log_c n⌉
   with c = 2^l - 1. *)
let test_tree_depths () =
  List.iter
    (fun (n, l, expect_depth) ->
      let p = Mutex_intf.params ~l n in
      let r = Mutex_harness.contention_free Registry.tree p in
      check
        (Printf.sprintf "tree n=%d l=%d steps" n l)
        (7 * expect_depth) r.Mutex_harness.max.Measures.steps;
      check
        (Printf.sprintf "tree n=%d l=%d registers" n l)
        (3 * expect_depth) r.Mutex_harness.max.Measures.registers)
    [ (3, 2, 1); (4, 2, 2); (9, 2, 2); (27, 2, 3); (28, 2, 4);
      (7, 3, 1); (49, 3, 2); (50, 3, 3); (2, 6, 1); (1000, 10, 1) ]

(* ------------------------------------------------------------------ *)
(* Safety                                                              *)
(* ------------------------------------------------------------------ *)

let assert_safe ?(rounds = 2) ~pick (module A : Mutex_intf.ALG) p =
  let out = Mutex_harness.run ~rounds ~pick (module A) p in
  (match Spec.mutual_exclusion out.Cfc_runtime.Runner.trace
           ~nprocs:p.Mutex_intf.n with
  | None -> ()
  | Some v ->
    Alcotest.failf "%s: %a" A.name Spec.pp_violation v);
  match Spec.mutex_progress out with
  | None -> ()
  | Some v -> Alcotest.failf "%s progress: %a" A.name Spec.pp_violation v

let test_safety_round_robin () =
  List.iter
    (fun (module A : Mutex_intf.ALG) ->
      List.iter
        (fun (n, l) ->
          let p = Mutex_intf.params ?l n in
          if A.supports p then
            assert_safe ~pick:(Cfc_runtime.Schedule.round_robin ())
              (module A) p)
        [ (2, None); (3, None); (5, None); (4, Some 2); (9, Some 2) ])
    Registry.all

let prop_safety_random =
  QCheck.Test.make ~count:60
    ~name:"mutual exclusion holds under random schedules (all algorithms)"
    QCheck.(triple (int_bound 100_000) (int_range 2 6) (int_range 2 4))
    (fun (seed, n, l) ->
      List.for_all
        (fun (module A : Mutex_intf.ALG) ->
          let p = { Mutex_intf.n; l } in
          if not (A.supports p) then true
          else begin
            let out =
              Mutex_harness.run ~rounds:2
                ~pick:(Cfc_runtime.Schedule.random ~seed)
                (module A) p
            in
            Spec.mutual_exclusion out.Cfc_runtime.Runner.trace ~nprocs:n
            = None
            && Spec.mutex_progress out = None
          end)
        Registry.all)

(* A biased scheduler that starves one process still preserves safety and
   lets the favored process through. *)
let prop_safety_biased =
  QCheck.Test.make ~count:30
    ~name:"mutual exclusion holds under biased schedules"
    QCheck.(pair (int_bound 100_000) (int_range 2 5))
    (fun (seed, n) ->
      List.for_all
        (fun (module A : Mutex_intf.ALG) ->
          let p = Mutex_intf.params n in
          if not (A.supports p) then true
          else begin
            let out =
              Mutex_harness.run ~rounds:2
                ~pick:
                  (Cfc_runtime.Schedule.biased ~seed ~favored:0 ~bias:8)
                (module A) p
            in
            Spec.mutual_exclusion out.Cfc_runtime.Runner.trace ~nprocs:n
            = None
          end)
        Registry.all)

(* Fail-stop crashes cannot break safety: any run with crashes injected
   is a legal run in which the crashed processes simply stop, so mutual
   exclusion must still hold for every algorithm (progress, of course,
   may not — a crashed lock holder blocks everyone, so the run is capped
   and only safety is asserted). *)
let prop_safety_random_crashes =
  QCheck.Test.make ~count:60
    ~name:"mutual exclusion holds under random crash schedules (all algorithms)"
    QCheck.(triple (int_bound 100_000) (int_range 2 5) (int_range 1 3))
    (fun (seed, n, ncrashes) ->
      (* Crash-only plan: distinct pids (the alternation rule allows at
         most one un-recovered crash per pid), seeded steps. *)
      let st = Random.State.make [| seed; n; ncrashes |] in
      let pids =
        List.init n Fun.id
        |> List.map (fun p -> (Random.State.bits st, p))
        |> List.sort compare
        |> List.map snd
      in
      let faults =
        List.filteri (fun i _ -> i < ncrashes) pids
        |> List.map (fun pid ->
               Cfc_runtime.Fault.crash ~step:(Random.State.int st 60) ~pid)
      in
      List.for_all
        (fun (module A : Mutex_intf.ALG) ->
          let p = Mutex_intf.params n in
          if not (A.supports p) then true
          else begin
            let out =
              Mutex_harness.run ~rounds:2 ~max_steps:2_000 ~faults
                ~pick:(Cfc_runtime.Schedule.random ~seed)
                (module A) p
            in
            Spec.mutual_exclusion out.Cfc_runtime.Runner.trace ~nprocs:n
            = None
          end)
        Registry.all)

(* Every recoverable lock in the registry also survives full
   crash–recovery chaos: crashed processes restart from the top and the
   recoverable mutual exclusion property (crashing inside the critical
   section does not release it) holds on every seeded plan, for every
   lock — so a new recoverable algorithm is covered the moment it
   registers. *)
let prop_recoverable_chaos =
  QCheck.Test.make ~count:80
    ~name:"recoverable locks: safety under seeded crash-recovery chaos"
    QCheck.(triple (int_bound 100_000) (int_range 2 5) (int_range 1 3))
    (fun (seed, n, pairs) ->
      let p = Mutex_intf.params n in
      List.for_all
        (fun alg ->
          let module A = (val alg : Mutex_intf.ALG) in
          (not (A.supports p))
          ||
          let _, plan, violation = Recovery_harness.chaos ~seed ~pairs alg p in
          match violation with
          | None -> true
          | Some v ->
            QCheck.Test.fail_reportf "%s n=%d: %a under %a" A.name n
              Spec.pp_violation v Cfc_runtime.Fault.pp_plan plan)
        Registry.recoverable)

(* ------------------------------------------------------------------ *)
(* Worst case                                                          *)
(* ------------------------------------------------------------------ *)

(* Kessels tournament: worst-case register complexity stays O(log n) (at
   most 4 per level) no matter the schedule — the [Kes82] table entry. *)
let test_kessels_wc_registers () =
  List.iter
    (fun n ->
      let p = Mutex_intf.params n in
      let s =
        Mutex_harness.wc_estimate ~seeds:[ 1; 2; 3 ]
          Registry.kessels_tournament p ~entry:true
      in
      let bound = 4 * Ixmath.ceil_log2 (max 2 n) in
      check_bool
        (Printf.sprintf "kessels n=%d wc regs %d <= %d" n
           s.Measures.registers bound)
        true
        (s.Measures.registers <= bound))
    [ 2; 4; 8; 16 ]

(* MS93 packing (EXP-NATIVE's counted half): force the slow path, then
   let the loser-turned-winner scan alone.  Plain Lamport reads n
   presence bits; the packed variant reads ceil(n/32) words — the §1.3
   multi-grain saving, measured deterministically. *)
let test_packed_slow_path_scan () =
  let slow_path_entry alg =
    let n = 32 in
    let p = Mutex_intf.params n in
    let system = Mutex_harness.system alg p in
    let memory, procs = system () in
    (* p0: announce, gate open, close gate (4 steps: b, x, read y, write
       y); p1: announce + overwrite x (2 steps); p0: read x -> lost fast
       path, retract (2 steps); p1: read closed gate, retract (2 steps);
       then round-robin: p0 scans and wins. *)
    let prefix = [ 0; 0; 0; 0; 1; 1; 0; 0; 1; 1 ] in
    let pick =
      Cfc_runtime.Schedule.pref_then prefix
        (Cfc_runtime.Schedule.round_robin ())
    in
    let out = Cfc_runtime.Runner.run ~memory ~pick procs in
    (match
       Spec.mutual_exclusion out.Cfc_runtime.Runner.trace ~nprocs:n
     with
    | None -> ()
    | Some v -> Alcotest.failf "packed scan: %a" Spec.pp_violation v);
    let entries =
      Measures.Online.wc_entries
        (Measures.Online.of_trace ~nprocs:n out.Cfc_runtime.Runner.trace)
    in
    List.fold_left
      (fun acc (pid, s) -> if pid = 0 then max acc s.Measures.steps else acc)
      0 entries
  in
  let plain = slow_path_entry Registry.lamport_fast in
  let packed = slow_path_entry Registry.ms_packed in
  (* plain: 6 pre-scan steps + 32 bit reads + 1 gate read; packed: the
     scan collapses to a single word read. *)
  check_bool
    (Printf.sprintf "packed slow path %d much shorter than plain %d" packed
       plain)
    true
    (packed + 24 <= plain);
  check_bool "plain really scanned" true (plain >= 32)

(* The worst-case entry step count of Lamport's algorithm grows without
   bound with the adversary's spin parameter (EXP-WC∞). *)
let test_unbounded_entry_demo () =
  let s100 = Mutex_harness.lamport_unbounded_entry ~spin:100 in
  let s1000 = Mutex_harness.lamport_unbounded_entry ~spin:1000 in
  check_bool "spin=100 at least 100 entry steps" true
    (s100.Measures.steps >= 100);
  check_bool "strictly growing" true
    (s1000.Measures.steps >= s100.Measures.steps + 800)

(* Exit code is short for every algorithm under contention too. *)
let test_wc_exit_small () =
  List.iter
    (fun (module A : Mutex_intf.ALG) ->
      let p = Mutex_intf.params 4 in
      if A.supports p then begin
        let s =
          Mutex_harness.wc_estimate ~seeds:[ 7 ] (module A) p ~entry:false
        in
        check_bool
          (Printf.sprintf "%s exit steps %d bounded" A.name s.Measures.steps)
          true
          (s.Measures.steps <= 3 * Ixmath.ceil_log2 4 + 2)
      end)
    Registry.all

(* ------------------------------------------------------------------ *)
(* Structural properties                                               *)
(* ------------------------------------------------------------------ *)

(* Kessels' defining property [Kes82]: no shared register is ever
   written by two different processes ("arbitration without common
   modifiable variables").  It is a property of the two-process arbiter
   — in a tournament the same node side is legitimately reused over time
   by successive winners from that subtree — so it is checked on the
   n=2 instance, where sides are owned permanently. *)
let test_kessels_single_writer () =
  let n = 2 in
  let out =
    Mutex_harness.run ~rounds:5
      ~pick:(Cfc_runtime.Schedule.random ~seed:5)
      Registry.kessels_tournament (Mutex_intf.params n)
  in
  let writers = Hashtbl.create 64 in
  Cfc_runtime.Trace.iter
    (fun e ->
      match e.Cfc_runtime.Event.body with
      | Cfc_runtime.Event.Access (r, k)
        when Cfc_runtime.Event.is_write k
             && r.Cfc_runtime.Register.name <> "cs.witness" ->
        let id = r.Cfc_runtime.Register.id in
        let known =
          Option.value ~default:[] (Hashtbl.find_opt writers id)
        in
        if not (List.mem e.Cfc_runtime.Event.pid known) then
          Hashtbl.replace writers id (e.Cfc_runtime.Event.pid :: known)
      | Cfc_runtime.Event.Access _ | Cfc_runtime.Event.Region_change _
      | Cfc_runtime.Event.Crash | Cfc_runtime.Event.Recover -> ())
    out.Cfc_runtime.Runner.trace;
  Hashtbl.iter
    (fun id pids ->
      check (Printf.sprintf "register %d single writer" id) 1
        (List.length pids))
    writers

(* Burns & Lynch [BL93]: any deadlock-free mutual exclusion algorithm
   for n processes needs at least n shared registers.  Every plain
   register-model algorithm here allocates at least that.  (The packed
   variant evades the count by construction — its sub-word stores are a
   multi-grain primitive outside BL93's model — which is itself worth
   pinning down: it allocates far fewer.) *)
let test_bl93_space_bound () =
  let space_of alg p =
    let memory, _ = Mutex_harness.system alg p () in
    (* minus the harness witness register *)
    Cfc_runtime.Memory.size memory - 1
  in
  List.iter
    (fun ((module A : Mutex_intf.ALG) as alg) ->
      List.iter
        (fun (n, l) ->
          let p = Mutex_intf.params ?l n in
          if A.supports p && A.name <> "lamport-fast-packed" then
            check_bool
              (Printf.sprintf "%s n=%d: %d registers >= n" A.name n
                 (space_of alg p))
              true
              (space_of alg p >= n))
        [ (2, None); (5, None); (9, Some 2); (16, Some 4) ])
    Registry.register_model;
  check_bool "packed variant beats BL93's count via multi-grain" true
    (space_of Registry.ms_packed (Mutex_intf.params 64) < 64);
  (* The one-bit algorithm meets the bound with equality: space-optimal. *)
  List.iter
    (fun n ->
      check
        (Printf.sprintf "one-bit n=%d space-optimal" n)
        n
        (space_of Registry.one_bit (Mutex_intf.params n)))
    [ 2; 7; 16 ]

(* Bakery is first-come-first-served: a process that finishes its
   doorway (its choosing section) before another begins it enters the
   critical section first.  Doorway boundaries are recovered from the
   trace (writes to the choosing bits), CS entries from region events. *)
let test_bakery_fifo () =
  let n = 5 in
  let out =
    Mutex_harness.run ~rounds:3
      ~pick:(Cfc_runtime.Schedule.random ~seed:31)
      Registry.bakery (Mutex_intf.params n)
  in
  let doorway_exit = Array.make n []
  and doorway_enter = Array.make n []
  and cs_enter = Array.make n [] in
  Cfc_runtime.Trace.iter
    (fun e ->
      let pid = e.Cfc_runtime.Event.pid in
      match e.Cfc_runtime.Event.body with
      | Cfc_runtime.Event.Access (r, Cfc_runtime.Event.A_write v)
        when r.Cfc_runtime.Register.name = Printf.sprintf "choosing[%d]" pid
        ->
        if v = 1 then
          doorway_enter.(pid) <- e.Cfc_runtime.Event.seq :: doorway_enter.(pid)
        else
          doorway_exit.(pid) <- e.Cfc_runtime.Event.seq :: doorway_exit.(pid)
      | Cfc_runtime.Event.Region_change Cfc_runtime.Event.Critical ->
        cs_enter.(pid) <- e.Cfc_runtime.Event.seq :: cs_enter.(pid)
      | Cfc_runtime.Event.Access _ | Cfc_runtime.Event.Region_change _
      | Cfc_runtime.Event.Crash | Cfc_runtime.Event.Recover -> ())
    out.Cfc_runtime.Runner.trace;
  let rounds pid =
    List.combine
      (List.combine
         (List.rev doorway_enter.(pid))
         (List.rev doorway_exit.(pid)))
      (List.rev cs_enter.(pid))
  in
  let all_rounds =
    List.concat_map (fun pid -> rounds pid) (List.init n Fun.id)
  in
  check_bool "observed rounds" true (List.length all_rounds = 3 * n);
  (* FCFS: doorway_exit(a) < doorway_enter(b) implies cs(a) < cs(b). *)
  List.iter
    (fun ((_, exit_a), cs_a) ->
      List.iter
        (fun ((enter_b, _), cs_b) ->
          if exit_a < enter_b then
            check_bool
              (Printf.sprintf "FCFS %d<%d => %d<%d" exit_a enter_b cs_a cs_b)
              true (cs_a < cs_b))
        all_rounds)
    all_rounds

(* ------------------------------------------------------------------ *)
(* Remote accesses (Â§1.2 / YA93)                                       *)
(* ------------------------------------------------------------------ *)

(* In contention-free runs, remote accesses = register complexity -- the
   Â§1.2 claim, as a property over every algorithm. *)
let prop_cf_remote_equals_registers =
  QCheck.Test.make ~count:40
    ~name:"contention-free remote accesses = register complexity"
    QCheck.(pair (int_range 1 12) (int_range 2 5))
    (fun (n, l) ->
      List.for_all
        (fun (module A : Mutex_intf.ALG) ->
          let p = { Mutex_intf.n; l } in
          if not (A.supports p) then true
          else begin
            let memory, procs = Mutex_harness.system (module A) p () in
            let out =
              Cfc_runtime.Runner.run ~memory
                ~pick:(Cfc_runtime.Schedule.solo 0)
                procs
            in
            let remote =
              Measures.Online.remote ~pid:0
                (Measures.Online.of_trace ~nprocs:n
                   out.Cfc_runtime.Runner.trace)
            in
            let regs =
              Cfc_runtime.Trace.distinct_registers ~pid:0
                out.Cfc_runtime.Runner.trace
            in
            remote = regs
          end)
        Registry.all)

(* Local spinning: under sustained contention MCS performs a bounded
   number of remote references per acquisition (the waiter's spin
   register is written only by its predecessor), while the test-and-set
   lock's spinning is remote on every iteration. *)
let test_mcs_local_spin () =
  let n = 6 and rounds = 10 and cs_len = 25 in
  (* A long critical section makes waiters wait: local spinners hit their
     cache, shared spinners go remote every iteration. *)
  let remote_max (module A : Mutex_intf.ALG) =
    let p = Mutex_intf.params n in
    let memory = Cfc_runtime.Memory.create () in
    let module M = (val Cfc_runtime.Sim_mem.mem memory) in
    let module L = A.Make (M) in
    let inst = L.create p in
    let scratch = M.alloc ~name:"scratch" ~width:8 ~init:0 () in
    let proc me () =
      for _ = 1 to rounds do
        Cfc_runtime.Proc.region Cfc_runtime.Event.Trying;
        L.lock inst ~me;
        Cfc_runtime.Proc.region Cfc_runtime.Event.Critical;
        for k = 1 to cs_len do
          M.write scratch (k land 255)
        done;
        Cfc_runtime.Proc.region Cfc_runtime.Event.Exiting;
        L.unlock inst ~me;
        Cfc_runtime.Proc.region Cfc_runtime.Event.Remainder
      done
    in
    let out =
      Cfc_runtime.Runner.run ~memory
        ~pick:(Cfc_runtime.Schedule.round_robin ())
        (Array.init n proc)
    in
    (match
       Spec.mutual_exclusion out.Cfc_runtime.Runner.trace ~nprocs:n
     with
    | None -> ()
    | Some v -> Alcotest.failf "%s: %a" A.name Spec.pp_violation v);
    Array.fold_left max 0
      (Measures.Online.remote_accesses
         (Measures.Online.of_trace ~nprocs:n out.Cfc_runtime.Runner.trace))
  in
  let mcs = remote_max Registry.mcs in
  let tas = remote_max Registry.tas_lock in
  (* MCS: bounded handover cost per acquisition, plus the shared scratch
     traffic inside the critical section (cs_len remote writes are shared
     by both algorithms, so compare totals directly). *)
  check_bool
    (Printf.sprintf "mcs %d well below tas %d" mcs tas)
    true
    (2 * mcs < tas);
  check_bool
    (Printf.sprintf "mcs overhead %d bounded" mcs)
    true
    (mcs <= (cs_len + 12) * rounds)

(* MCS hands the lock over in queue (FIFO) order. *)
let test_mcs_fifo () =
  let n = 4 in
  let out =
    Mutex_harness.run ~rounds:3
      ~pick:(Cfc_runtime.Schedule.round_robin ())
      Registry.mcs (Mutex_intf.params n)
  in
  let entries = ref [] in
  Cfc_runtime.Trace.iter
    (fun e ->
      match e.Cfc_runtime.Event.body with
      | Cfc_runtime.Event.Region_change Cfc_runtime.Event.Critical ->
        entries := e.Cfc_runtime.Event.pid :: !entries
      | Cfc_runtime.Event.Region_change _ | Cfc_runtime.Event.Access _
      | Cfc_runtime.Event.Crash | Cfc_runtime.Event.Recover -> ())
    out.Cfc_runtime.Runner.trace;
  let entries = List.rev !entries in
  check "all acquisitions" (3 * n) (List.length entries);
  (* Round-robin arrival + FIFO handover = cyclic CS order. *)
  List.iteri
    (fun i pid -> check (Printf.sprintf "entry %d cyclic" i) (i mod n) pid)
    entries

(* ------------------------------------------------------------------ *)
(* Contention detection                                                *)
(* ------------------------------------------------------------------ *)

let test_detector_solo_and_counts () =
  List.iter
    (fun (module D : Mutex_intf.DETECTOR) ->
      List.iter
        (fun (n, l) ->
          let p = Mutex_intf.params ?l n in
          if D.supports p then begin
            let r = Detect_harness.contention_free (module D) p in
            let ctx = Printf.sprintf "%s n=%d l=%d" D.name n p.Mutex_intf.l in
            (match D.predicted_cf_steps p with
            | Some s ->
              check (ctx ^ " cf steps") s r.Detect_harness.max.Measures.steps
            | None -> ());
            check (ctx ^ " atomicity") r.Detect_harness.atomicity_declared
              r.Detect_harness.atomicity_observed
          end)
        [ (1, None); (2, None); (8, None); (8, Some 1); (8, Some 2);
          (64, Some 3); (100, Some 2) ])
    Registry.detectors

let prop_at_most_one_winner =
  QCheck.Test.make ~count:100
    ~name:"contention detection: at most one winner under any schedule"
    QCheck.(triple (int_bound 100_000) (int_range 2 8) (int_range 1 4))
    (fun (seed, n, l) ->
      List.for_all
        (fun (module D : Mutex_intf.DETECTOR) ->
          let p = { Mutex_intf.n; l } in
          if not (D.supports p) then true
          else begin
            let out =
              Detect_harness.run
                ~pick:(Cfc_runtime.Schedule.random ~seed)
                (module D) p
            in
            Spec.at_most_one_winner out.Cfc_runtime.Runner.trace ~nprocs:n
            = None
            && out.Cfc_runtime.Runner.completed
          end)
        Registry.detectors)

(* Detectors are wait-free: every process decides even when others crash
   at arbitrary points. *)
let prop_detector_wait_free =
  QCheck.Test.make ~count:50
    ~name:"contention detection is wait-free under crashes"
    QCheck.(triple (int_bound 100_000) (int_range 2 6) (int_range 0 20))
    (fun (seed, n, crash_step) ->
      List.for_all
        (fun (module D : Mutex_intf.DETECTOR) ->
          let p = Mutex_intf.params n in
          if not (D.supports p) then true
          else begin
            let out =
              Detect_harness.run
                ~crash_at:[ (crash_step, seed mod n) ]
                ~pick:(Cfc_runtime.Schedule.random ~seed)
                (module D) p
            in
            out.Cfc_runtime.Runner.completed
            && Spec.at_most_one_winner out.Cfc_runtime.Runner.trace ~nprocs:n
               = None
          end)
        Registry.detectors)

(* Splitter tree: worst-case steps follow 4·⌈log n/l⌉ — the §2.6 bound. *)
let test_splitter_tree_wc () =
  List.iter
    (fun (n, l) ->
      let p = { Mutex_intf.n; l } in
      let s = Detect_harness.wc_estimate ~seeds:[ 1; 2 ]
          Registry.splitter_tree p
      in
      let expect = 4 * Ixmath.ceil_div (Ixmath.ceil_log2 n) l in
      check_bool
        (Printf.sprintf "splitter-tree n=%d l=%d wc steps %d <= %d" n l
           s.Measures.steps expect)
        true
        (s.Measures.steps <= expect))
    [ (8, 1); (8, 2); (64, 3); (100, 4); (1000, 2) ]

(* ------------------------------------------------------------------ *)
(* Registry sanity                                                     *)
(* ------------------------------------------------------------------ *)

let test_registry () =
  check "algorithm count" 13 (List.length Registry.all);
  check "recoverable count" 2 (List.length Registry.recoverable);
  check_bool "find recoverable" true
    (Registry.find "recoverable-tas" <> None);
  check_bool "find recoverable queue" true
    (Registry.find "recoverable-queue" <> None);
  check_bool "find lamport" true (Registry.find "lamport-fast" <> None);
  check_bool "find nonsense" true (Registry.find "nonsense" = None);
  let names = List.map alg_name Registry.all in
  check "names unique" (List.length names)
    (List.length (List.sort_uniq compare names))

(* Packed-word cap boundary: the recoverable queue packs n slots of
   bits_needed(n) bits into one register, so it tops out at n = 15
   (15·4 = 60 <= 62, but 16·5 = 80 > 62).  [supports] must flip exactly
   there, and a direct [create] past the cap must fail loudly with a
   message naming the algorithm and the cap — not surface as a
   backend-specific register-width error. *)
let test_rec_queue_packing_cap () =
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
  check_bool "supports n=15" true (Q.supports (Mutex_intf.params 15));
  check_bool "rejects n=16" false (Q.supports (Mutex_intf.params 16));
  let memory = Cfc_runtime.Memory.create () in
  let module M = (val Cfc_runtime.Sim_mem.mem memory) in
  let module L = Q.Make (M) in
  (* At the boundary itself allocation must still go through. *)
  ignore (L.create (Mutex_intf.params 15));
  match L.create (Mutex_intf.params 16) with
  | exception Invalid_argument msg ->
      check_bool "error names the algorithm" true
        (contains msg "recoverable-queue");
      check_bool "error states the cap" true (contains msg "n <= 15")
  | _ -> Alcotest.fail "create past the packing cap was accepted"

let () =
  Alcotest.run "cfc_mutex"
    [ ( "contention-free",
        [ Alcotest.test_case "exact counts (all algorithms)" `Quick
            test_cf_exact;
          Alcotest.test_case "atomicity observed = declared" `Quick
            test_atomicity_observed;
          Alcotest.test_case "lamport 5+2 shape" `Quick test_lamport_shape;
          Alcotest.test_case "tree depths" `Quick test_tree_depths ] );
      ( "safety",
        [ Alcotest.test_case "round robin" `Quick test_safety_round_robin;
          QCheck_alcotest.to_alcotest prop_safety_random;
          QCheck_alcotest.to_alcotest prop_safety_biased;
          QCheck_alcotest.to_alcotest prop_safety_random_crashes;
          QCheck_alcotest.to_alcotest prop_recoverable_chaos ] );
      ( "worst-case",
        [ Alcotest.test_case "kessels wc registers O(log n)" `Quick
            test_kessels_wc_registers;
          Alcotest.test_case "unbounded entry demo" `Quick
            test_unbounded_entry_demo;
          Alcotest.test_case "packed slow-path scan (MS93)" `Quick
            test_packed_slow_path_scan;
          Alcotest.test_case "exit code short" `Quick test_wc_exit_small ] );
      ( "structure",
        [ Alcotest.test_case "kessels single-writer (Kes82)" `Quick
            test_kessels_single_writer;
          Alcotest.test_case "BL93 space bound" `Quick test_bl93_space_bound
        ] );
      ( "remote",
        [ Alcotest.test_case "bakery FCFS" `Quick test_bakery_fifo;
          QCheck_alcotest.to_alcotest prop_cf_remote_equals_registers;
          Alcotest.test_case "mcs local spin (YA93)" `Quick
            test_mcs_local_spin;
          Alcotest.test_case "mcs fifo handover" `Quick test_mcs_fifo ] );
      ( "detection",
        [ Alcotest.test_case "solo wins with exact counts" `Quick
            test_detector_solo_and_counts;
          QCheck_alcotest.to_alcotest prop_at_most_one_winner;
          QCheck_alcotest.to_alcotest prop_detector_wait_free;
          Alcotest.test_case "splitter tree wc" `Quick
            test_splitter_tree_wc ] );
      ( "registry",
        [ Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "rec-queue packing cap" `Quick
            test_rec_queue_packing_cap ] ) ]
