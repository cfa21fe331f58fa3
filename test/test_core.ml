(* Tests for the measurement framework itself: the §2.2 fragment
   definitions on hand-built traces, the bound formulas of Theorems 1-7,
   and the sandwich lower-bound <= measured <= upper-bound on real
   algorithms. *)

open Cfc_base
open Cfc_runtime
open Cfc_mutex
open Cfc_core

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Measures on hand-built traces                                       *)
(* ------------------------------------------------------------------ *)

let mk_regs () =
  let m = Memory.create () in
  (Memory.alloc ~name:"r1" ~width:4 ~init:0 m,
   Memory.alloc ~name:"r2" ~width:4 ~init:0 m)

(* Replay [trace] into [Measures.Online]: every query must agree EXACTLY
   with the test-only reference walks in [Oracle] — same samples, same
   fragment lists, same order.  This is the gate that lets the EXP-SCALE
   sweeps trust the streaming numbers at n where no trace can be
   materialised. *)
let check_online_matches_trace ~ctx ~n trace =
  let online = Measures.Online.of_trace ~nprocs:n trace in
  let eq tag a b = check_bool (ctx tag) true (a = b) in
  eq "events_seen" (Measures.Online.events_seen online) (Trace.length trace);
  eq "per_process"
    (Array.to_list (Measures.Online.per_process online))
    (Array.to_list (Oracle.per_process_samples trace ~nprocs:n));
  let decisions = Measures.decisions trace ~nprocs:n in
  for pid = 0 to n - 1 do
    eq "contention_free"
      (Measures.Online.contention_free online ~pid)
      (Oracle.mutex_contention_free trace ~nprocs:n ~pid);
    eq "decision"
      (Measures.Online.decision online ~pid)
      (List.fold_left
         (fun last (p, v) -> if p = pid then Some v else last)
         None decisions)
  done;
  eq "wc_entries"
    (Measures.Online.wc_entries online)
    (Oracle.mutex_wc_entry trace ~nprocs:n);
  eq "wc_exits"
    (Measures.Online.wc_exits online)
    (Oracle.mutex_wc_exit trace ~nprocs:n);
  eq "recovery_paths"
    (Measures.Online.recovery_paths online)
    (Oracle.recovery_paths trace ~nprocs:n);
  eq "recovery_rmr"
    (Measures.Online.recovery_rmr online)
    (Oracle.recovery_rmr trace ~nprocs:n);
  eq "remote_accesses"
    (Array.to_list (Measures.Online.remote_accesses online))
    (Array.to_list (Oracle.remote_accesses trace ~nprocs:n))

(* A hand-built trace must also satisfy the whole oracle comparison. *)
let agrees name ~n trace =
  check_online_matches_trace ~n trace ~ctx:(fun tag -> name ^ ": " ^ tag)

(* The §2.2 worst-case entry window: steps taken while another process
   occupies its critical section or exit code do not count. *)
let test_wc_entry_window () =
  let r1, r2 = mk_regs () in
  let t = Trace.create () in
  let ev pid body = ignore (Trace.record t ~pid body) in
  ev 1 (Event.Region_change Event.Trying);
  ev 1 (Event.Access (r1, Event.A_write 1));
  ev 1 (Event.Region_change Event.Critical);
  ev 0 (Event.Region_change Event.Trying);
  ev 0 (Event.Access (r1, Event.A_read 1));   (* p1 in CS: must not count *)
  ev 0 (Event.Access (r2, Event.A_read 0));   (* p1 in CS: must not count *)
  ev 1 (Event.Region_change Event.Exiting);
  ev 1 (Event.Access (r1, Event.A_write 0));  (* p1 exit step *)
  ev 1 (Event.Region_change Event.Remainder);
  ev 0 (Event.Access (r1, Event.A_read 0));   (* counts *)
  ev 0 (Event.Access (r1, Event.A_write 2));  (* counts *)
  ev 0 (Event.Region_change Event.Critical);
  let o = Measures.Online.of_trace ~nprocs:2 t in
  let entries = Measures.Online.wc_entries o in
  (match List.filter (fun (pid, _) -> pid = 0) entries with
  | [ (_, s) ] ->
    check "p0 entry steps" 2 s.Measures.steps;
    check "p0 entry registers" 1 s.Measures.registers
  | other -> Alcotest.failf "expected 1 entry for p0, got %d" (List.length other));
  (match List.filter (fun (pid, _) -> pid = 1) entries with
  | [ (_, s) ] -> check "p1 entry steps" 1 s.Measures.steps
  | other -> Alcotest.failf "expected 1 entry for p1, got %d" (List.length other));
  (match Measures.Online.wc_exits o with
  | [ (1, s) ] -> check "p1 exit steps" 1 s.Measures.steps
  | _ -> Alcotest.fail "expected exactly p1's exit fragment");
  agrees "wc entry window" ~n:2 t

(* Contention-free measure: only Trying and Exiting accesses count;
   critical-section work is free. *)
let test_cf_regions () =
  let r1, r2 = mk_regs () in
  let t = Trace.create () in
  let ev pid body = ignore (Trace.record t ~pid body) in
  ev 0 (Event.Region_change Event.Trying);
  ev 0 (Event.Access (r1, Event.A_write 1));
  ev 0 (Event.Access (r2, Event.A_read 0));
  ev 0 (Event.Region_change Event.Critical);
  ev 0 (Event.Access (r2, Event.A_write 3));  (* CS work: not counted *)
  ev 0 (Event.Region_change Event.Exiting);
  ev 0 (Event.Access (r1, Event.A_write 0));
  ev 0 (Event.Region_change Event.Remainder);
  let s =
    Measures.Online.contention_free (Measures.Online.of_trace ~nprocs:1 t)
      ~pid:0
  in
  check "cf steps" 3 s.Measures.steps;
  check "cf registers" 2 s.Measures.registers;
  check "cf writes" 2 s.Measures.write_steps;
  check "cf reads" 1 s.Measures.read_steps;
  agrees "cf regions" ~n:1 t

(* Multiple entries by the same process produce one fragment each. *)
let test_repeated_entries () =
  let r1, _ = mk_regs () in
  let t = Trace.create () in
  let ev pid body = ignore (Trace.record t ~pid body) in
  for i = 1 to 3 do
    ev 0 (Event.Region_change Event.Trying);
    for _ = 1 to i do
      ev 0 (Event.Access (r1, Event.A_read 0))
    done;
    ev 0 (Event.Region_change Event.Critical);
    ev 0 (Event.Region_change Event.Exiting);
    ev 0 (Event.Region_change Event.Remainder)
  done;
  let entries =
    Measures.Online.wc_entries (Measures.Online.of_trace ~nprocs:1 t)
  in
  check "three fragments" 3 (List.length entries);
  let steps = List.map (fun (_, s) -> s.Measures.steps) entries in
  Alcotest.(check (list int)) "growing" [ 1; 2; 3 ] steps;
  agrees "repeated entries" ~n:1 t

(* decisions/at_most_one_winner plumbing. *)
let test_decisions () =
  let t = Trace.create () in
  let ev pid body = ignore (Trace.record t ~pid body) in
  ev 0 (Event.Region_change (Event.Decided 1));
  ev 1 (Event.Region_change (Event.Decided 0));
  ev 2 (Event.Region_change (Event.Decided 0));
  Alcotest.(check (list (pair int int)))
    "decisions" [ (0, 1); (1, 0); (2, 0) ]
    (Measures.decisions t ~nprocs:3);
  check_bool "one winner ok" true (Spec.at_most_one_winner t ~nprocs:3 = None);
  ev 1 (Event.Region_change (Event.Decided 1));
  check_bool "two winners flagged" true
    (Spec.at_most_one_winner t ~nprocs:3 <> None)

(* Recovery paths: a path opens at Recover, counts the pid's accesses,
   and closes at its next Critical; a second crash abandons the open
   fragment. *)
let test_recovery_paths () =
  let r1, r2 = mk_regs () in
  let t = Trace.create () in
  let ev pid body = ignore (Trace.record t ~pid body) in
  ev 0 (Event.Region_change Event.Trying);
  ev 0 (Event.Access (r1, Event.A_write 1));
  ev 0 Event.Crash;
  ev 0 Event.Recover;
  ev 0 (Event.Access (r1, Event.A_read 1));
  ev 0 (Event.Access (r2, Event.A_write 2));
  ev 0 (Event.Region_change Event.Critical);
  (* p1: first recovery is abandoned by a second crash, second one
     completes with a single step. *)
  ev 1 Event.Crash;
  ev 1 Event.Recover;
  ev 1 (Event.Access (r1, Event.A_read 1));
  ev 1 Event.Crash;
  ev 1 Event.Recover;
  ev 1 (Event.Access (r2, Event.A_read 2));
  ev 1 (Event.Region_change Event.Critical);
  (* p0's later CS re-entry without a crash opens no new path. *)
  ev 0 (Event.Region_change Event.Exiting);
  ev 0 (Event.Region_change Event.Remainder);
  ev 0 (Event.Region_change Event.Trying);
  ev 0 (Event.Region_change Event.Critical);
  let paths =
    Measures.Online.recovery_paths (Measures.Online.of_trace ~nprocs:2 t)
  in
  (match paths with
  | [ (0, s0); (1, s1) ] ->
    check "p0 path steps" 2 s0.Measures.steps;
    check "p0 path registers" 2 s0.Measures.registers;
    check "p1 path steps" 1 s1.Measures.steps;
    check "p1 path registers" 1 s1.Measures.registers
  | _ ->
    Alcotest.failf "expected one completed path per pid, got %d"
      (List.length paths));
  agrees "recovery paths" ~n:2 t

(* Recovery RMR: same fragment windows as the recovery paths (one-to-one),
   under the cold-cache rule — the crash invalidates the dying
   incarnation's copies, so a register cached before the crash is remote
   again on the recovery path; another process's write invalidates as
   usual. *)
let test_recovery_rmr () =
  let r1, r2 = mk_regs () in
  let t = Trace.create () in
  let ev pid body = ignore (Trace.record t ~pid body) in
  ev 0 (Event.Region_change Event.Trying);
  ev 0 (Event.Access (r1, Event.A_write 1)); (* p0 caches r1... *)
  ev 0 Event.Crash;                          (* ...and loses it *)
  ev 0 Event.Recover;
  ev 0 (Event.Access (r1, Event.A_read 1));  (* remote: cold cache *)
  ev 0 (Event.Access (r1, Event.A_read 1));  (* local: just re-cached *)
  ev 0 (Event.Access (r2, Event.A_write 2)); (* remote: first touch *)
  ev 0 (Event.Region_change Event.Critical);
  let paths_rmrs () =
    let o = Measures.Online.of_trace ~nprocs:2 t in
    (Measures.Online.recovery_paths o, Measures.Online.recovery_rmr o)
  in
  let paths, rmrs = paths_rmrs () in
  check "one path" 1 (List.length paths);
  (match (paths, rmrs) with
  | [ (0, s) ], [ (0, rmr) ] ->
    check "path steps" 3 s.Measures.steps;
    check "rmr counts cold registers, not steps" 2 rmr
  | _ -> Alcotest.fail "recovery_rmr disagrees with recovery_paths");
  (* A second crash–recover pair on the same process: the re-cached r1
     is lost again, and the completed fragments stay one-to-one. *)
  ev 0 (Event.Region_change Event.Exiting);
  ev 0 Event.Crash;
  ev 0 Event.Recover;
  ev 0 (Event.Access (r1, Event.A_read 1));  (* remote again *)
  ev 1 (Event.Access (r1, Event.A_write 7)); (* p1 invalidates p0 *)
  ev 0 (Event.Access (r1, Event.A_read 7));  (* remote: invalidated *)
  ev 0 (Event.Region_change Event.Critical);
  let paths, rmrs = paths_rmrs () in
  Alcotest.(check (list (pair int int)))
    "per-incarnation rmr" [ (0, 2); (0, 2) ] rmrs;
  check "still one path per completed recovery" 2 (List.length paths);
  (* The second incarnation's fragment counts only its own accesses — the
     pre-crash fragment is not double-attributed. *)
  (match List.rev paths with
  | (0, s) :: _ -> check "second path steps" 2 s.Measures.steps
  | _ -> Alcotest.fail "missing second path");
  agrees "recovery rmr" ~n:2 t

(* Every recoverable lock's exact recovery costs, via the harness (which
   itself goes through [Measures.Online.recovery_paths]): every crash point
   yields a completed recovery ([Stalled] would be a deadlock
   regression), costing exactly the closed form of its crash region —
   [rec_steps_held] in [Critical], [rec_steps_not_held] outside the
   critical/exit code, and one of the two in the ambiguous [Exiting]
   (the release may or may not have taken effect).  The recovery RMR
   equals the path's register count: the restarted incarnation starts
   with a cold cache, so solo every distinct register is remote once —
   the §1.2 registers-equal-remotes claim extended to recovery. *)
let test_recoverable_recovery_exact () =
  List.iter
    (fun (module A : Mutex_intf.ALG) ->
      let p = Mutex_intf.params 4 in
      let forms = Option.get (A.recovery p) in
      let sweep = Recovery_harness.solo_sweep (module A : Mutex_intf.ALG) p in
      check_bool (A.name ^ ": sweep non-empty") true (sweep <> []);
      Alcotest.(check int) (A.name ^ ": no stalled points") 0
        (List.length (Recovery_harness.stalled sweep));
      List.iter
        (fun (pt : Recovery_harness.sweep_point) ->
          match pt.Recovery_harness.outcome with
          | Recovery_harness.Stalled -> ()
          | Recovery_harness.Recovered { path; rmr } ->
            let label what =
              Printf.sprintf "%s: crash@%d (%s) %s" A.name
                pt.Recovery_harness.crash_step
                (Format.asprintf "%a" Event.pp_region
                   pt.Recovery_harness.crash_region)
                what
            in
            (match pt.Recovery_harness.crash_region with
            | Event.Critical ->
              check (label "steps = held form")
                forms.Mutex_intf.rec_steps_held path.Measures.steps;
              check (label "registers = held form")
                forms.Mutex_intf.rec_registers_held path.Measures.registers
            | Event.Exiting ->
              check_bool (label "steps within forms") true
                (path.Measures.steps = forms.Mutex_intf.rec_steps_held
                || path.Measures.steps = forms.Mutex_intf.rec_steps_not_held)
            | _ ->
              check (label "steps = not-held form")
                forms.Mutex_intf.rec_steps_not_held path.Measures.steps;
              check (label "registers = not-held form")
                forms.Mutex_intf.rec_registers_not_held
                  path.Measures.registers);
            check (label "rmr = cold-cache registers") path.Measures.registers
              rmr)
        sweep)
    Registry.recoverable

(* Crash during recovery: re-crash the restarted incarnation at every
   step of (and just past) its recovery path.  The final incarnation
   must still recover, at a cost that is itself one of the closed
   forms — recovery code re-entered from the top is just another
   recovery. *)
let test_double_crash_sweep () =
  List.iter
    (fun (module A : Mutex_intf.ALG) ->
      let p = Mutex_intf.params 3 in
      let forms = Option.get (A.recovery p) in
      let points = Recovery_harness.double_sweep (module A : Mutex_intf.ALG) p in
      check_bool (A.name ^ ": double sweep non-empty") true (points <> []);
      check_bool (A.name ^ ": some re-crash hit the recovery path") true
        (List.exists
           (fun (pt : Recovery_harness.double_point) ->
             pt.Recovery_harness.second_crash
             > pt.Recovery_harness.first_crash)
           points);
      List.iter
        (fun (pt : Recovery_harness.double_point) ->
          match pt.Recovery_harness.final with
          | Recovery_harness.Stalled ->
            Alcotest.failf "%s: stalled after crash@%d+%d" A.name
              pt.Recovery_harness.first_crash
              pt.Recovery_harness.second_crash
          | Recovery_harness.Recovered { path; rmr } ->
            check_bool
              (Printf.sprintf "%s: crash@%d+%d cost is a closed form" A.name
                 pt.Recovery_harness.first_crash
                 pt.Recovery_harness.second_crash)
              true
              (path.Measures.steps = forms.Mutex_intf.rec_steps_held
              || path.Measures.steps = forms.Mutex_intf.rec_steps_not_held);
            check "double-crash rmr = cold-cache registers"
              path.Measures.registers rmr)
        points)
    Registry.recoverable

(* ------------------------------------------------------------------ *)
(* Occupancy windows across crash–recovery                             *)
(* ------------------------------------------------------------------ *)

(* A crash + recovery inside someone's entry window must not corrupt the
   winner's §2.2 fragment: the recovered process restarts in Remainder,
   so it stops occupying the critical section / exit code from the
   recovery on.  Before trace-level region bookkeeping learned about
   [Recover] events, the crashed incarnation's stale [Exiting] region
   (i) clipped the winner's entry fragment to zero steps and (ii)
   attached a spurious exit fragment to the restarted incarnation. *)
let run_crash_proto ~faults ~mid =
  let memory = Memory.create () in
  let module M = (val Sim_mem.mem memory) in
  let a = M.alloc ~name:"a" ~width:4 ~init:0 () in
  let b = M.alloc ~name:"b" ~width:4 ~init:0 () in
  let scratch = M.alloc ~name:"s" ~width:4 ~init:0 () in
  (* 4 accesses per cycle: read a (entry), write scratch (CS), write a +
     write b (exit) — a two-step exit so a fault can land mid-exit. *)
  let proc me () =
    Proc.region Event.Trying;
    ignore (M.read a);
    Proc.region Event.Critical;
    M.write scratch me;
    Proc.region Event.Exiting;
    M.write a me;
    M.write b me;
    Proc.region Event.Remainder
  in
  let procs = [| proc 0; proc 1 |] in
  (* p1 first (all 4 accesses fault-free, 3 when crashed mid-exit), then
     p0's full cycle, then whatever is left of p1. *)
  let prefix = List.init (if mid then 3 else 4) (fun _ -> 1) in
  let pick =
    Schedule.pref_then prefix
      (Schedule.pref_then [ 0; 0; 0; 0 ] (Schedule.solo 1))
  in
  Oracle.run ~memory ~pick ~faults procs

let test_winner_fragment_survives_fault () =
  let fragment_of out =
    agrees "winner fragment" ~n:2 out.Runner.trace;
    match
      List.filter (fun (pid, _) -> pid = 0)
        (Measures.Online.wc_entries
           (Measures.Online.of_trace ~nprocs:2 out.Runner.trace))
    with
    | [ (_, s) ] -> s
    | other ->
      Alcotest.failf "expected exactly one p0 entry, got %d"
        (List.length other)
  in
  let clean = fragment_of (run_crash_proto ~faults:[] ~mid:false) in
  check "fault-free winner fragment" 1 clean.Measures.steps;
  (* Crash p1 just before scheduler step 3 — after its exit's first
     write, before the second — and restart it in the same step. *)
  let faults =
    [ Fault.crash ~step:3 ~pid:1; Fault.recover ~step:3 ~pid:1 ]
  in
  let out = run_crash_proto ~faults ~mid:true in
  let faulted = fragment_of out in
  check "winner fragment unchanged by mid-exit crash" clean.Measures.steps
    faulted.Measures.steps;
  check "winner registers unchanged" clean.Measures.registers
    faulted.Measures.registers;
  (* The restarted incarnation's completed exit is the only p1 exit
     fragment; the half-done pre-crash exit must not leak one. *)
  let p1_exits =
    List.filter (fun (pid, _) -> pid = 1)
      (Measures.Online.wc_exits
         (Measures.Online.of_trace ~nprocs:2 out.Runner.trace))
  in
  (match p1_exits with
  | [ (_, s) ] -> check "restarted exit steps" 2 s.Measures.steps
  | other ->
    Alcotest.failf "expected exactly one p1 exit fragment, got %d"
      (List.length other));
  (* regions_at agrees: after the recovery (and before p1 restarts), p1
     is back in Remainder, not ghost-occupying Exiting. *)
  let crash_seq =
    Trace.fold
      (fun acc e ->
        match e.Event.body with Event.Recover -> e.Event.seq | _ -> acc)
      (-1) out.Runner.trace
  in
  let regions = Trace.regions_at out.Runner.trace (crash_seq + 1) ~nprocs:2 in
  check_bool "p1 region reset on recovery" true
    (Event.region_equal regions.(1) Event.Remainder)

(* ------------------------------------------------------------------ *)
(* Remote accesses: local spin vs spin on shared (§1.2 / YA93)         *)
(* ------------------------------------------------------------------ *)

let rmr_per_acq (module A : Mutex_intf.ALG) ~n ~rounds ~cs_len ~seed =
  let p = Mutex_intf.params n in
  let memory = Memory.create () in
  let module M = (val Sim_mem.mem memory) in
  let module L = A.Make (M) in
  let inst = L.create p in
  let scratch = M.alloc ~name:"s" ~width:8 ~init:0 () in
  let proc me () =
    for _ = 1 to rounds do
      Proc.region Event.Trying;
      L.lock inst ~me;
      Proc.region Event.Critical;
      for k = 1 to cs_len do
        M.write scratch (k land 255)
      done;
      Proc.region Event.Exiting;
      L.unlock inst ~me;
      Proc.region Event.Remainder
    done
  in
  let out =
    Oracle.run ~memory ~pick:(Schedule.random ~seed) (Array.init n proc)
  in
  let remote =
    Measures.Online.remote_accesses
      (Measures.Online.of_trace ~nprocs:n out.Runner.trace)
  in
  float_of_int (Array.fold_left ( + ) 0 remote) /. float_of_int (n * rounds)

(* The mcs-lock waiter spins on a flag only its predecessor writes, so
   its remote accesses per acquisition stay bounded at any contention;
   tas-lock spins with test-and-set writes on the one shared bit, so its
   remote count grows with contention. *)
let prop_local_spin_vs_shared_spin =
  QCheck.Test.make ~count:15 ~name:"mcs bounded rmr, tas grows (YA93)"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let mcs6 = rmr_per_acq Registry.mcs ~n:6 ~rounds:5 ~cs_len:20 ~seed in
      let tas2 = rmr_per_acq Registry.tas_lock ~n:2 ~rounds:5 ~cs_len:20 ~seed in
      let tas6 = rmr_per_acq Registry.tas_lock ~n:6 ~rounds:5 ~cs_len:20 ~seed in
      mcs6 <= 20.0 && tas6 > tas2 && tas6 > 2.0 *. mcs6)

(* ------------------------------------------------------------------ *)
(* Bound formulas                                                      *)
(* ------------------------------------------------------------------ *)

let test_bound_values () =
  (* Spot values computed by hand: n=2^16, l=1: log n=16, loglog n=4,
     denom = 1-2+12 = 11. *)
  let v = Bounds.mutex_cf_step_lower ~n:65536 ~l:1 in
  check_bool "thm1 value" true (abs_float (v -. (16. /. 11.)) < 1e-9);
  (* n=2^16, l=16: sqrt(16/20). *)
  let v = Bounds.mutex_cf_register_lower ~n:65536 ~l:16 in
  check_bool "thm2 value" true (abs_float (v -. sqrt (16. /. 20.)) < 1e-9);
  check "thm3 step upper n=2^16 l=4" (7 * 4)
    (Bounds.mutex_cf_step_upper ~n:65536 ~l:4);
  check "thm3 reg upper n=2^16 l=4" (3 * 4)
    (Bounds.mutex_cf_register_upper ~n:65536 ~l:4);
  (* Degenerate smalls return 0 rather than exploding. *)
  check_bool "n=1 is vacuous" true (Bounds.mutex_cf_step_lower ~n:1 ~l:1 = 0.);
  check_bool "n=2 l=1 denom<=0 vacuous" true
    (Bounds.mutex_cf_step_lower ~n:2 ~l:1 = 0.)

let test_bound_monotone () =
  (* The step lower bound grows with n and shrinks with l. *)
  let ns = [ 16; 256; 65536; 1 lsl 20 ] in
  let rec pairs = function
    | a :: (b :: _ as rest) ->
      check_bool "monotone in n" true
        (Bounds.mutex_cf_step_lower ~n:b ~l:4
        >= Bounds.mutex_cf_step_lower ~n:a ~l:4);
      pairs rest
    | _ -> ()
  in
  pairs ns;
  List.iter
    (fun l ->
      check_bool "antitone in l" true
        (Bounds.mutex_cf_step_lower ~n:65536 ~l
        >= Bounds.mutex_cf_step_lower ~n:65536 ~l:(l + 4)))
    [ 1; 4; 8 ]

let test_naming_table_shape () =
  check "five columns" 5 (List.length Bounds.naming_table);
  (* The tas column is all linear; rmw all log. *)
  (match Bounds.naming_table with
  | ("tas", a, b, c, d) :: _ ->
    List.iter
      (fun cell -> check_bool "tas linear" true (cell = Bounds.Linear))
      [ a; b; c; d ]
  | _ -> Alcotest.fail "tas first");
  match List.rev Bounds.naming_table with
  | ("rmw", a, b, c, d) :: _ ->
    List.iter
      (fun cell -> check_bool "rmw log" true (cell = Bounds.Log))
      [ a; b; c; d ]
  | _ -> Alcotest.fail "rmw last"

(* ------------------------------------------------------------------ *)
(* Sandwich: lower bound <= measured <= upper bound                    *)
(* ------------------------------------------------------------------ *)

(* Theorem 1/2 lower bounds hold for every register-model algorithm at
   its true atomicity. *)
let prop_lower_bounds_hold =
  QCheck.Test.make ~count:40
    ~name:"theorem 1 and 2 lower bounds hold for all measured algorithms"
    QCheck.(pair (int_range 2 40) (int_range 1 8))
    (fun (n, l) ->
      List.for_all
        (fun (module A : Mutex_intf.ALG) ->
          let p = { Mutex_intf.n; l } in
          if not (A.supports p) then true
          else begin
            let r = Mutex_harness.contention_free (module A) p in
            let atomicity = r.Mutex_harness.atomicity_observed in
            let s = r.Mutex_harness.max in
            float_of_int s.Measures.steps
            > Bounds.mutex_cf_step_lower ~n ~l:atomicity -. 1e-9
            && float_of_int s.Measures.registers
               >= Bounds.mutex_cf_register_lower ~n ~l:atomicity -. 1e-9
          end)
        Registry.register_model)

(* The tree meets Theorem 3 with the capacity-(2^l - 1) caveat: measured
   = 7·⌈log_c n⌉ <= 7·⌈log n/(l-1)⌉, and equals the paper's 7·⌈log n/l⌉
   whenever the depths coincide. *)
let prop_tree_upper =
  QCheck.Test.make ~count:60 ~name:"tree within theorem 3 upper bounds"
    QCheck.(pair (int_range 2 2000) (int_range 2 8))
    (fun (n, l) ->
      let p = { Mutex_intf.n; l } in
      let r = Mutex_harness.contention_free Registry.tree p in
      let s = r.Mutex_harness.max in
      let loose = 7 * Ixmath.ceil_div (Ixmath.ceil_log2 (max 2 n)) (l - 1) in
      s.Measures.steps <= max loose (Bounds.mutex_cf_step_upper ~n ~l)
      && s.Measures.registers * 7 = s.Measures.steps * 3)

(* Lemma 3's inequality is satisfied by the measured (r, w) of every
   correct detector: a sanity check that the combinatorial lemma and our
   instrumentation speak the same language. *)
let prop_lemma3_on_detectors =
  QCheck.Test.make ~count:40
    ~name:"lemma 3 inequality holds for measured detector complexities"
    QCheck.(pair (int_range 2 64) (int_range 1 6))
    (fun (n, l) ->
      List.for_all
        (fun (module D : Mutex_intf.DETECTOR) ->
          let p = { Mutex_intf.n; l } in
          if not (D.supports p) then true
          else begin
            let r = Detect_harness.contention_free (module D) p in
            let s = r.Detect_harness.max in
            Bounds.lemma3_holds ~n ~l:r.Detect_harness.atomicity_observed
              ~r:s.Measures.read_registers ~w:s.Measures.write_steps
          end)
        Registry.detectors)

(* Lemma 6 likewise for register complexity. *)
let prop_lemma6_on_detectors =
  QCheck.Test.make ~count:40
    ~name:"lemma 6 inequality holds for measured detector complexities"
    QCheck.(pair (int_range 2 64) (int_range 1 6))
    (fun (n, l) ->
      List.for_all
        (fun (module D : Mutex_intf.DETECTOR) ->
          let p = { Mutex_intf.n; l } in
          if not (D.supports p) then true
          else begin
            let r = Detect_harness.contention_free (module D) p in
            let s = r.Detect_harness.max in
            Bounds.lemma6_holds ~n ~l:r.Detect_harness.atomicity_observed
              ~c:s.Measures.registers ~w:s.Measures.write_registers
          end)
        Registry.detectors)

(* The §2.4 corollary: bits accessed contention-free >= l + c - 1 where c
   is the Theorem 1 bound; our tree with atomicity l accesses about
   l·(steps) bits, comfortably above. *)
let test_bits_accessed () =
  List.iter
    (fun (n, l) ->
      let p = { Mutex_intf.n; l } in
      let r = Mutex_harness.contention_free Registry.tree p in
      let bits_touched =
        l * r.Mutex_harness.max.Measures.steps
      in
      check_bool
        (Printf.sprintf "n=%d l=%d bits %d >= bound" n l bits_touched)
        true
        (float_of_int bits_touched >= Bounds.bits_accessed_lower ~n ~l))
    [ (16, 2); (256, 2); (256, 4); (4096, 3) ]

(* ------------------------------------------------------------------ *)
(* Streaming (Online) vs materialised measures                         *)
(* ------------------------------------------------------------------ *)

(* The exclusion checkers: [Spec.Monitor], the whole-trace folds and
   [Spec.Inc] against the oracle's region-array walks, in both modes. *)
let exclusion_modes =
  [ ("plain", Spec.Monitor.mutual_exclusion, Spec.mutual_exclusion,
     Spec.Inc.mutual_exclusion, Oracle.mutual_exclusion);
    ("recoverable", Spec.Monitor.mutual_exclusion_recoverable,
     Spec.mutual_exclusion_recoverable, Spec.Inc.mutual_exclusion_recoverable,
     Oracle.mutual_exclusion_recoverable) ]

let pp_verdict = function
  | None -> "None"
  | Some v -> Format.asprintf "%a" Spec.pp_violation v

(* Feed the first [main] events (default: all) to [Spec.Inc] the way the
   model checker's DFS does: in chunks of 1..48 events, each fed [~from]
   the previous length, and at random nodes a checkpoint from which one
   to three detour branches (chunks taken from anywhere in [events]) are
   explored and undone by the restore thunk plus [Trace.truncate].  After
   every chunk the verdict must equal the oracle's verdict on the trace
   so far. *)
let check_inc_prefixes ?main ~ctx ~n ~seed (events : Event.t array) =
  let st = Random.State.make [| seed; 0x1c |] in
  let len = Array.length events in
  let main = Option.value main ~default:len in
  let chunk () = 1 + Random.State.int st 48 in
  List.iter
    (fun (mode, _, _, inc, oracle) ->
      let run = Spec.Inc.start inc ~nprocs:n in
      let w = Trace.create () in
      let advance i j =
        let from = Trace.length w in
        for k = i to j - 1 do
          ignore (Trace.record w ~pid:events.(k).Event.pid events.(k).Event.body)
        done;
        let got = run.Spec.Inc.feed w ~from and want = oracle w ~nprocs:n in
        if got <> want then
          Alcotest.failf "%s: inc %s after %d events: %s, oracle %s" (ctx "inc")
            mode (Trace.length w) (pp_verdict got) (pp_verdict want)
      in
      let i = ref 0 in
      while !i < main do
        if Random.State.int st 4 = 0 then begin
          let saved = Trace.length w and restore = run.Spec.Inc.save () in
          for _ = 1 to 1 + Random.State.int st 3 do
            let d = Random.State.int st len in
            advance d (min len (d + chunk ()));
            restore ();
            Trace.truncate w saved
          done
        end;
        let j = min main (!i + chunk ()) in
        advance !i j;
        i := j
      done)
    exclusion_modes

let events_of trace = Array.of_list (Trace.to_list trace)

(* Every exclusion checker agrees with the oracle on [trace]: the
   monitor fed event by event, the whole-trace fold, and [Spec.Inc] fed
   as by the DFS. *)
let check_exclusion_matches_trace ?main ~ctx ~n trace =
  List.iter
    (fun (mode, monitor, whole, _, oracle) ->
      let want = oracle trace ~nprocs:n in
      let m = monitor () in
      Trace.iter (fun e -> Spec.Monitor.feed m ~pid:e.Event.pid e.Event.body) trace;
      check_bool (ctx ("monitor " ^ mode)) true (Spec.Monitor.result m = want);
      check_bool (ctx ("whole-trace " ^ mode)) true
        (whole trace ~nprocs:n = want))
    exclusion_modes;
  check_inc_prefixes ?main ~ctx ~n ~seed:(Trace.length trace)
    (events_of trace)

(* One contended run of [alg] at [n], checked against the oracle's
   measures and exclusion verdicts. *)
let assert_online_equals_materialised ?faults ~pick ~what alg n =
  let (module A : Mutex_intf.ALG) = alg in
  let p = Mutex_intf.params n in
  let out = Mutex_harness.run ~rounds:2 ?faults ~pick:(pick ()) alg p in
  let trace = out.Runner.trace in
  let ctx tag = Printf.sprintf "%s n=%d %s: %s" A.name n what tag in
  check_online_matches_trace ~ctx ~n trace;
  check_exclusion_matches_trace ~ctx ~n trace

let schedules n =
  [ ("round-robin", fun () -> Schedule.round_robin ());
    ("random", fun () -> Schedule.random ~seed:(11 * n + 1)) ]

(* Every registry algorithm, crash-free, at n in {2, 3, 8} under two
   schedule families. *)
let test_online_equals_materialised_registry () =
  List.iter
    (fun n ->
      List.iter
        (fun ((module A : Mutex_intf.ALG) as alg) ->
          if A.supports (Mutex_intf.params n) then
            List.iter
              (fun (what, pick) ->
                assert_online_equals_materialised ~pick ~what alg n)
              (schedules n))
        Registry.all)
    [ 2; 3; 8 ]

(* The recoverable locks again, now under seeded chaos plans: the
   recovery-path and recovery-RMR accumulators must match through
   crash eviction and restart. *)
let test_online_equals_materialised_faults () =
  List.iter
    (fun n ->
      List.iter
        (fun ((module A : Mutex_intf.ALG) as alg) ->
          let p = Mutex_intf.params n in
          if A.supports p && A.recovery p <> None then
            List.iter
              (fun seed ->
                let faults =
                  Fault.chaos ~seed ~nprocs:n ~pairs:2 ~horizon:(40 * n)
                in
                List.iter
                  (fun (what, pick) ->
                    assert_online_equals_materialised ~faults ~pick
                      ~what:(Printf.sprintf "%s chaos seed=%d" what seed)
                      alg n)
                  (schedules n))
              [ 1; 2; 3 ])
        Registry.recoverable)
    [ 2; 3; 8 ]

(* [Recovery_harness.chaos] runs, over the same space as the safety
   property in test_mutex (seed, n in 2..5, 1..3 pairs, every
   recoverable lock): the recovery paths, the recovery RMR and the
   recoverable exclusion verdict of each run equal the oracle's. *)
let prop_chaos_matches_oracle =
  QCheck.Test.make ~count:80
    ~name:"recovery chaos runs: measures and verdict = oracle"
    QCheck.(triple (int_bound 100_000) (int_range 2 5) (int_range 1 3))
    (fun (seed, n, pairs) ->
      let p = Mutex_intf.params n in
      List.iter
        (fun ((module A : Mutex_intf.ALG) as alg) ->
          if A.supports p then begin
            let r, _, _ = Recovery_harness.chaos ~seed ~pairs alg p in
            let trace = r.Adversary.outcome.Runner.trace in
            let ctx tag =
              Printf.sprintf "%s chaos seed=%d n=%d pairs=%d: %s" A.name seed n
                pairs tag
            in
            let online = Measures.Online.of_trace ~nprocs:n trace in
            check_bool (ctx "recovery_paths") true
              (Measures.Online.recovery_paths online
              = Oracle.recovery_paths trace ~nprocs:n);
            check_bool (ctx "recovery_rmr") true
              (Measures.Online.recovery_rmr online
              = Oracle.recovery_rmr trace ~nprocs:n);
            check_bool (ctx "mutual_exclusion_recoverable") true
              (Spec.mutual_exclusion_recoverable trace ~nprocs:n
              = Oracle.mutual_exclusion_recoverable trace ~nprocs:n)
          end)
        Registry.recoverable;
      true)

(* A process that crashes inside its critical section and recovers no
   longer occupies it under the plain rule (its region restarts in
   Remainder), but still does under the recoverable rule.  On
   T0 C0 ✗0 ↺0 T1 C1 every plain checker must return None — a checker
   that kept the crashed incarnation's stale Critical would report a
   violation at event 5 — and every recoverable checker the same
   violation at event 5. *)
let test_crashed_holder_verdicts () =
  let t = Trace.create () in
  let ev pid body = ignore (Trace.record t ~pid body) in
  ev 0 (Event.Region_change Event.Trying);
  ev 0 (Event.Region_change Event.Critical);
  ev 0 Event.Crash;
  ev 0 Event.Recover;
  ev 1 (Event.Region_change Event.Trying);
  ev 1 (Event.Region_change Event.Critical);
  let recoverable =
    Some
      { Spec.at = 5; pids = [ 1; 0 ];
        what = "two processes in the critical section (across recoveries)" }
  in
  List.iter
    (fun (mode, monitor, whole, inc, oracle) ->
      let want = if mode = "plain" then None else recoverable in
      let is tag got =
        Alcotest.(check string) (mode ^ " " ^ tag) (pp_verdict want)
          (pp_verdict got)
      in
      is "oracle" (oracle t ~nprocs:2);
      is "whole-trace" (whole t ~nprocs:2);
      let m = monitor () in
      Trace.iter (fun e -> Spec.Monitor.feed m ~pid:e.Event.pid e.Event.body) t;
      is "monitor" (Spec.Monitor.result m);
      is "inc (one feed)" ((Spec.Inc.start inc ~nprocs:2).Spec.Inc.feed t ~from:0);
      (* One node per event, as the DFS appends them. *)
      let run = Spec.Inc.start inc ~nprocs:2 and w = Trace.create () in
      let last = ref None in
      Trace.iter
        (fun e ->
          ignore (Trace.record w ~pid:e.Event.pid e.Event.body);
          last := run.Spec.Inc.feed w ~from:(Trace.length w - 1))
        t;
      is "inc (per event)" !last)
    exclusion_modes

(* An event sequence no lock would emit, built straight through
   [Trace.record]: up to 62 processes (the materialised
   [remote_accesses] limit) access registers of two arenas with sparse,
   large ids, wander through every region, and run crash -> re-access ->
   recover -> Critical scripts (sometimes crashing again mid-recovery).
   Two sweeps each take one process over more than 1000 distinct
   registers, so the per-process and global tables must grow.  A tail
   then sweeps overlapping stretches of a dense block of ids from 0, as
   an arena hands them out, across several pages of the fold's
   directory: several processes share its registers, so each has an
   owner row and rows in other processes' tables, and a fold reset
   after this trace meets its entries again in the next one. *)
let synthetic_trace seed =
  let st = Random.State.make [| seed; 0x5e9 |] in
  let n = 2 + Random.State.int st 61 in
  let arena ~tag ~base ~step k =
    Array.init k (fun i ->
        Register.make ~id:(base + (i * step))
          ~name:(Printf.sprintf "%s%d" tag i) ~width:8 ~model:None ~init:0)
  in
  let hot = arena ~tag:"h" ~base:(1 lsl 40) ~step:7919 24 in
  let cold = arena ~tag:"c" ~base:(1 lsl 55) ~step:1_000_003 1200 in
  let t = Trace.create () in
  let regions = Array.make n Event.Remainder in
  let ev pid body =
    ignore (Trace.record t ~pid body);
    match body with
    | Event.Region_change r -> regions.(pid) <- r
    | Event.Recover -> regions.(pid) <- Event.Remainder
    | Event.Access _ | Event.Crash -> ()
  in
  let kind () =
    match Random.State.int st 5 with
    | 0 | 1 -> Event.A_read 0
    | 2 -> Event.A_write 1
    | 3 -> Event.A_cas (0, 1, Random.State.bool st)
    | _ -> Event.A_xchg (0, 1)
  in
  let pick a = a.(Random.State.int st (Array.length a)) in
  let access pid =
    let r = if Random.State.int st 4 = 0 then pick cold else pick hot in
    ev pid (Event.Access (r, kind ()))
  in
  let next_region = function
    | Event.Remainder -> Event.Trying
    | Event.Trying -> Event.Critical
    | Event.Critical -> Event.Exiting
    | Event.Exiting | Event.Decided _ | Event.Halted -> Event.Remainder
  in
  let odd_region () =
    match Random.State.int st 6 with
    | 0 -> Event.Remainder
    | 1 -> Event.Trying
    | 2 -> Event.Critical
    | 3 -> Event.Exiting
    | 4 -> Event.Decided (Random.State.int st 4)
    | _ -> Event.Halted
  in
  let burst pid k =
    for _ = 1 to k do
      if Random.State.int st 3 = 0 then access (Random.State.int st n);
      ev pid (Event.Access (pick hot, kind ()))
    done
  in
  let recovery pid =
    ev pid Event.Crash;
    burst pid (Random.State.int st 4);
    ev pid Event.Recover;
    burst pid (1 + Random.State.int st 6);
    if Random.State.int st 4 = 0 then begin
      ev pid Event.Crash;
      ev pid Event.Recover;
      burst pid (Random.State.int st 3)
    end;
    ev pid (Event.Region_change Event.Critical)
  in
  let sweep pid =
    ev pid (Event.Region_change Event.Trying);
    let len = 1001 + Random.State.int st 150 in
    let start = Random.State.int st (Array.length cold - len) in
    for i = start to start + len - 1 do
      if Random.State.int st 50 = 0 then access (Random.State.int st n);
      ev pid (Event.Access (cold.(i), kind ()))
    done
  in
  let sweeps = [ 300; 900 ] in
  for step = 0 to 1_200 do
    if List.mem step sweeps then sweep (Random.State.int st n);
    let pid = Random.State.int st n in
    match Random.State.int st 100 with
    | k when k < 60 -> access pid
    | k when k < 80 -> ev pid (Event.Region_change (next_region regions.(pid)))
    | k when k < 84 -> ev pid (Event.Region_change (odd_region ()))
    | k when k < 89 -> recovery pid
    | k when k < 92 -> ev pid Event.Crash
    | k when k < 94 -> ev pid Event.Recover
    | _ -> burst pid 8
  done;
  let dense = arena ~tag:"d" ~base:0 ~step:1 1100 in
  for _ = 1 to 6 do
    let pid = Random.State.int st n in
    ev pid (Event.Region_change (next_region regions.(pid)));
    let start = Random.State.int st 600 in
    for i = start to start + 499 do
      if Random.State.int st 8 = 0 then
        ev (Random.State.int st n) (Event.Access (pick dense, kind ()));
      ev pid (Event.Access (dense.(i), kind ()))
    done;
    if Random.State.int st 3 = 0 then recovery pid
  done;
  (n, t)

(* Randomized amplification: arbitrary seeds drive the schedule and the
   fault plan of real runs — a cheap spin lock and a recoverable lock
   cover the plain and crash paths — and a synthetic event sequence. *)
(* Event sequences shaped like lock runs, for the exclusion checkers:
   2..5 processes cycle Remainder -> Trying -> Critical -> Exiting, crash
   anywhere (a crashed process takes no step until it recovers), and
   enter the critical section only when no process occupies it under the
   plain rule, except for a rare deliberate intrusion.  A crashed holder
   keeps the section until it recovers, then a successor may enter while
   the recoverable rule still counts the crashed incarnation — so
   verdicts come late in the sequence, and the two rules disagree. *)
let exclusion_trace seed =
  let st = Random.State.make [| seed; 0xe7c |] in
  let n = 2 + Random.State.int st 4 in
  let r = Register.make ~id:1 ~name:"x" ~width:8 ~model:None ~init:0 in
  let t = Trace.create () in
  let regions = Array.make n Event.Remainder in
  let crashed = Array.make n false in
  let ev pid body = ignore (Trace.record t ~pid body) in
  let occupied_by_other pid =
    List.exists
      (fun q -> q <> pid && Event.region_equal regions.(q) Event.Critical)
      (List.init n Fun.id)
  in
  for _ = 1 to 400 do
    let pid = Random.State.int st n in
    if crashed.(pid) then begin
      if Random.State.bool st then begin
        ev pid Event.Recover;
        crashed.(pid) <- false;
        regions.(pid) <- Event.Remainder
      end
    end
    else
      match Random.State.int st 10 with
      | 0 ->
        ev pid Event.Crash;
        crashed.(pid) <- true
      | 1 | 2 -> ev pid (Event.Access (r, Event.A_read 0))
      | _ ->
        let next =
          match regions.(pid) with
          | Event.Remainder -> Some Event.Trying
          | Event.Trying ->
            if occupied_by_other pid && Random.State.int st 50 <> 0 then None
            else Some Event.Critical
          | Event.Critical -> Some Event.Exiting
          | Event.Exiting | Event.Decided _ | Event.Halted ->
            Some Event.Remainder
        in
        Option.iter
          (fun g ->
            ev pid (Event.Region_change g);
            regions.(pid) <- g)
          next
  done;
  (n, t)

(* Every exclusion checker agrees with the oracle, in both modes —
   [Spec.Inc] on every prefix it is fed, as by the DFS — on the
   synthetic sequences (crash/recover scripts included) and on the
   lock-shaped ones.  Every synthetic sequence (seeds 0..10000) has its
   first violation by event 384 in both modes, after which the verdict is
   frozen, so [Spec.Inc]'s main path stops at 1000 events (the oracle
   costs O(prefix) per chunk); detours still draw from the whole
   sequence. *)
let prop_inc_prefixes =
  QCheck.Test.make ~count:40 ~name:"exclusion checkers = oracle per prefix"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let check ?main what (n, trace) =
        check_exclusion_matches_trace ?main ~n trace ~ctx:(fun tag ->
            Printf.sprintf "%s seed=%d n=%d: %s" what seed n tag)
      in
      check ~main:1000 "synthetic" (synthetic_trace seed);
      check "lock-shaped" (exclusion_trace seed);
      true)

let prop_online_equivalence =
  QCheck.Test.make ~count:40 ~name:"online measures = materialised (seeded)"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let pick = ("seeded", fun () -> Schedule.random ~seed) in
      assert_online_equals_materialised ~pick:(snd pick) ~what:"qcheck"
        Registry.lamport_fast 3;
      let faults = Fault.chaos ~seed ~nprocs:3 ~pairs:2 ~horizon:60 in
      assert_online_equals_materialised ~faults ~pick:(snd pick)
        ~what:"qcheck chaos" Registry.rec_tas 3;
      let n, trace = synthetic_trace seed in
      check_online_matches_trace ~n trace ~ctx:(fun tag ->
          Printf.sprintf "synthetic seed=%d n=%d: %s" seed n tag);
      true)

(* A fold reset after one trace answers every query on a second trace
   exactly as a fresh fold fed only the second: reset keeps capacity and
   recycles process records, never state. *)
let check_reset_equals_fresh ~ctx ~n a b =
  let feed_all o t = Trace.iter (fun e -> Measures.Online.feed o ~pid:e.Event.pid e.Event.body) t in
  let reused = Measures.Online.create ~nprocs:n in
  feed_all reused a;
  Measures.Online.reset reused;
  feed_all reused b;
  let fresh = Measures.Online.create ~nprocs:n in
  feed_all fresh b;
  let eq tag f = check_bool (ctx tag) true (f reused = f fresh) in
  let open Measures.Online in
  eq "contention_free" (fun o -> List.init n (fun pid -> contention_free o ~pid));
  eq "decision" (fun o -> List.init n (fun pid -> decision o ~pid));
  eq "per_process" (fun o -> Array.to_list (per_process o));
  eq "wc_entries" wc_entries;
  eq "wc_exits" wc_exits;
  eq "recovery_paths" recovery_paths;
  eq "recovery_rmr" recovery_rmr;
  eq "remote_accesses" (fun o -> Array.to_list (remote_accesses o));
  eq "touched" (fun o ->
      List.sort compare (List.map (fun r -> r.Register.id) (touched o)));
  eq "touched_count" touched_count;
  eq "events_seen" events_seen;
  eq "spawned" spawned

let prop_online_reset =
  QCheck.Test.make ~count:40 ~name:"online reset = fresh fold (seeded)"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let p = Mutex_intf.params 3 in
      let run ?faults alg =
        (Mutex_harness.run ~rounds:2 ?faults ~pick:(Schedule.random ~seed)
           alg p).Runner.trace
      in
      let plain = run Registry.lamport_fast in
      let chaos =
        run ~faults:(Fault.chaos ~seed ~nprocs:3 ~pairs:2 ~horizon:60)
          Registry.rec_tas
      in
      let ns, synthetic = synthetic_trace seed in
      let ns', synthetic' = synthetic_trace (seed + 1) in
      let n = max 3 (max ns ns') in
      List.iter
        (fun (what, a, b) ->
          check_reset_equals_fresh ~n a b ~ctx:(fun tag ->
              Printf.sprintf "seed=%d %s: %s" seed what tag))
        [ ("plain, reset, chaos", plain, chaos);
          ("chaos, reset, plain", chaos, plain);
          ("synthetic, reset, chaos", synthetic, chaos);
          ("chaos, reset, synthetic", chaos, synthetic);
          ("synthetic, reset, next seed's synthetic", synthetic, synthetic') ];
      true)

(* The deterministic cost proxy of the solo CF harness: minor words per
   simulated access (the accesses its samples count) of bakery's n=1024
   solo runs, set-up included.  Was 31.2 with a fold per run and a wheel
   turn per access; one reset fold and run-ahead steps give 9.5. *)
let test_cf_harness_alloc () =
  let before = Gc.minor_words () in
  let r = Mutex_harness.contention_free Registry.bakery (Mutex_intf.params 1024) in
  let words = Gc.minor_words () -. before in
  let accesses =
    Array.fold_left
      (fun acc s -> acc + s.Measures.steps)
      0 r.Mutex_harness.per_process
  in
  let per_access = words /. float_of_int accesses in
  check_bool
    (Printf.sprintf "%.2f minor words per access (%d accesses), bound 12"
       per_access accesses)
    true (per_access <= 12.)

(* After warm-up, feeding accesses to registers every process has
   already touched allocates nothing: one probe of the process's table,
   then stamp and last-access updates in place.  Four pids cover the
   Trying (cf + entry window), Exiting (cf + exit fragment) and
   recovery-fragment paths, and alternate to defeat the pid cache. *)
let test_online_feed_no_alloc () =
  let m = Memory.create () in
  let regs = Memory.alloc_array ~width:8 ~init:0 m 64 in
  let bodies =
    Array.init 128 (fun i ->
        let r = regs.(i mod 64) in
        Event.Access (r, if i mod 3 = 0 then Event.A_write 1 else Event.A_read 0))
  in
  let o = Measures.Online.create ~nprocs:4 in
  let feed = Measures.Online.feed o in
  feed ~pid:0 (Event.Region_change Event.Trying);
  feed ~pid:1 (Event.Region_change Event.Exiting);
  feed ~pid:2 Event.Crash;
  feed ~pid:2 Event.Recover;
  feed ~pid:3 (Event.Region_change Event.Trying);
  for pid = 0 to 3 do
    Array.iter (feed ~pid) bodies
  done;
  let measure what =
    let before = Gc.minor_words () in
    for i = 0 to 9_999 do
      Measures.Online.feed o ~pid:(i land 3) bodies.(i land 127)
    done;
    let words = Gc.minor_words () -. before in
    check_bool
      (Printf.sprintf "%s: %.0f minor words for 10^4 accesses" what words)
      true (words = 0.)
  in
  measure "fresh fold";
  (* The same after a reset, once the recycled records have seen the
     same warm-up. *)
  Measures.Online.reset o;
  feed ~pid:0 (Event.Region_change Event.Trying);
  feed ~pid:1 (Event.Region_change Event.Exiting);
  feed ~pid:2 Event.Crash;
  feed ~pid:2 Event.Recover;
  feed ~pid:3 (Event.Region_change Event.Trying);
  for pid = 0 to 3 do
    Array.iter (feed ~pid) bodies
  done;
  measure "after reset"

(* A lock that breaks inside its entry section, after two accesses. *)
module Failing_lock : Mutex_intf.ALG = struct
  let name = "failing-lock"
  let supports (_ : Mutex_intf.params) = true
  let atomicity (_ : Mutex_intf.params) = 8
  let predicted_cf_steps (_ : Mutex_intf.params) = None
  let predicted_cf_registers (_ : Mutex_intf.params) = None
  let recovery (_ : Mutex_intf.params) = None

  module Make (M : Mem_intf.MEM) = struct
    type t = { r : M.reg }

    let create (_ : Mutex_intf.params) =
      { r = M.alloc ~name:"fail.r" ~width:8 ~init:0 () }

    let lock t ~me =
      M.write t.r (me + 1);
      ignore (M.read t.r);
      failwith "lock broke"

    let unlock _ ~me:_ = ()
  end
end

(* A detector that breaks after two accesses. *)
module Failing_detector : Mutex_intf.DETECTOR = struct
  let name = "failing-detector"
  let supports (_ : Mutex_intf.params) = true
  let atomicity (_ : Mutex_intf.params) = 8
  let predicted_cf_steps (_ : Mutex_intf.params) = None
  let predicted_wc_steps (_ : Mutex_intf.params) = None

  module Make (M : Mem_intf.MEM) = struct
    type t = { r : M.reg }

    let create (_ : Mutex_intf.params) =
      { r = M.alloc ~name:"fail.r" ~width:8 ~init:0 () }

    let detect t ~me =
      M.write t.r (me + 1);
      ignore (M.read t.r);
      failwith "detector broke"
  end
end

(* A naming algorithm whose first process takes name 1 and whose second
   breaks after two accesses: the error happens mid-way through the
   sequential run. *)
module Failing_naming : Cfc_naming.Naming_intf.ALG = struct
  let name = "failing-naming"
  let model = Model.read_write
  let supports ~n:_ = true
  let predicted_cf_steps ~n:_ = None
  let predicted_wc_steps ~n:_ = None
  let predicted_cf_registers ~n:_ = None
  let predicted_wc_registers ~n:_ = None

  module Make (M : Mem_intf.MEM) = struct
    type t = { count : M.reg }

    let create ~n:_ = { count = M.alloc ~name:"fail.count" ~width:8 ~init:0 () }

    let run t =
      let c = M.read t.count in
      M.write t.count (c + 1);
      if c > 0 then failwith "naming broke";
      c + 1
  end
end

(* The solo driver records no trace, yet its error report carries the
   failing process's last events, from a traced rerun of the same
   deterministic run: a mutex solo run, a detector's (decision family)
   and the naming sequential run, whose failing process is the second. *)
let test_cf_error_has_recent_events () =
  let expect what f ~pid:want_pid ~steps:want_steps ~error:want_error events =
    match f () with
    | _ -> Alcotest.failf "%s: expected Process_error" what
    | exception Runner.Process_error { pid; steps; error; recent } ->
      check (what ^ ": pid") want_pid pid;
      check (what ^ ": steps") want_steps steps;
      check_bool (what ^ ": error") true (error = Failure want_error);
      Alcotest.(check (list string))
        (what ^ ": recent events") events
        (List.map (Format.asprintf "%a" Event.pp) recent)
  in
  let p = Mutex_intf.params 3 in
  expect "mutex"
    (fun () -> ignore (Mutex_harness.contention_free (module Failing_lock) p))
    ~pid:0 ~steps:2 ~error:"lock broke"
    [ "   0 p0 enters trying"; "   1 p0 write fail.r := 1";
      "   2 p0 read  fail.r -> 1" ];
  expect "detector"
    (fun () ->
      ignore (Detect_harness.contention_free (module Failing_detector) p))
    ~pid:0 ~steps:2 ~error:"detector broke"
    [ "   0 p0 enters trying"; "   1 p0 write fail.r := 1";
      "   2 p0 read  fail.r -> 1" ];
  expect "naming"
    (fun () ->
      ignore (Naming_harness.contention_free (module Failing_naming) ~n:3))
    ~pid:1 ~steps:2 ~error:"naming broke"
    [ "   5 p1 enters trying"; "   6 p1 read  fail.count -> 1";
      "   7 p1 write fail.count := 2" ]

(* The solo driver against the runs it replaced, kept as the reference:
   a fresh instance per pid run by [Runner] under [Schedule.solo] (one
   [Schedule.sequential] run for naming), measured by the oracle's trace
   walk, with decisions scanned from the trace.  Every detector, naming,
   consensus and renaming registry entry, at the sizes of the analyzer's
   subject registry ([Subjects.registry]). *)
let test_cf_driver_equals_traced () =
  let eq what a b = check_bool what true (a = b) in
  let traced ~n out =
    let trace = out.Runner.trace in
    let decisions = Measures.decisions trace ~nprocs:n in
    ( Oracle.per_process_samples trace ~nprocs:n,
      fun pid -> Option.value ~default:(-1) (List.assoc_opt pid decisions) )
  in
  List.iter
    (fun ((module D : Mutex_intf.DETECTOR) as det) ->
      List.iter
        (fun n ->
          let p = Mutex_intf.params n in
          if D.supports p then
            let pids = Mutex_harness.sample_pids n in
            eq
              (Printf.sprintf "%s n=%d per_process" D.name n)
              (Array.to_list
                 (Detect_harness.contention_free det p).Detect_harness.per_process)
              (List.map
                 (fun me ->
                   (fst
                      (traced ~n
                         (Detect_harness.run ~pick:(Schedule.solo me) det p))).(me))
                 pids))
        [ 2; 8 ])
    Registry.detectors;
  List.iter
    (fun ((module A : Cfc_naming.Naming_intf.ALG) as alg) ->
      List.iter
        (fun n ->
          if A.supports ~n then begin
            let r = Naming_harness.contention_free alg ~n in
            let samples, decision =
              traced ~n
                (Naming_harness.run ~pick:(Schedule.sequential ()) alg ~n)
            in
            let what = Printf.sprintf "%s n=%d" A.name n in
            eq (what ^ " per_process") r.Naming_harness.per_process samples;
            eq (what ^ " names") r.Naming_harness.names (Array.init n decision)
          end)
        [ 2; 4; 8 ])
    Cfc_naming.Registry.all;
  List.iter
    (fun (((module C : Cfc_consensus.Consensus_intf.ALG) as alg), n) ->
      List.iter
        (fun mask ->
          let inputs = Array.init n (fun i -> (mask lsr i) land 1) in
          let r = Consensus_harness.contention_free alg ~n ~inputs in
          eq
            (Printf.sprintf "%s n=%d inputs=%d per_process" C.name n mask)
            r.Consensus_harness.per_process
            (Array.init n (fun me ->
                 (fst
                    (traced ~n
                       (Consensus_harness.run ~pick:(Schedule.solo me) alg ~n
                          ~inputs)
                         .Adversary.outcome)).(me))))
        (List.init (1 lsl n) Fun.id))
    (List.map (fun a -> (a, 2)) Cfc_consensus.Registry.all
    @ [ (Cfc_consensus.Registry.broken_rw, 2);
        (Cfc_consensus.Registry.broken_three, 3) ]);
  List.iter
    (fun ((module R : Cfc_renaming.Renaming_intf.ALG) as alg) ->
      List.iter
        (fun n ->
          let r = Renaming_harness.contention_free alg ~n in
          let solo me =
            traced ~n
              (Renaming_harness.run ~participants:[ me ]
                 ~pick:(Schedule.solo me) alg ~n)
          in
          let what = Printf.sprintf "%s n=%d" R.name n in
          eq (what ^ " per_process") r.Renaming_harness.per_process
            (Array.init n (fun me -> (fst (solo me)).(me)));
          eq (what ^ " names") r.Renaming_harness.names
            (Array.init n (fun me -> snd (solo me) me)))
        [ 2; 4 ])
    Cfc_renaming.Registry.all

(* The scheduled driver's stall rule, both sides.  A checked run cut off
   by its budget raises Adversary.Stalled, whichever path reached it:
   the worst-case family on the mutex, naming and detection bodies and
   the contended workload.  A caller whose result is the stop reads it
   instead: a participant-restricted renaming run ends Picker_done by
   design, a recovery sweep over a non-recoverable lock reports Stalled
   points, and a chaos run cut short returns its outcome. *)
let test_stall_rule () =
  let stalls what ~alg ~budget ~below f =
    match f () with
    | _ -> Alcotest.failf "%s: cut-off run returned a measurement" what
    | exception Adversary.Stalled { alg = a; stopped; acquisitions; max_steps }
      ->
      Alcotest.(check string) (what ^ ": alg") alg a;
      check_bool (what ^ ": out of steps") true
        (stopped = Runner.Out_of_steps);
      check (what ^ ": budget") budget max_steps;
      check_bool (what ^ ": under-count") true (acquisitions < below)
  in
  let worst_case what ~alg ~budget ~below ~nprocs instantiate =
    stalls what ~alg ~budget ~below (fun () ->
        Adversary.worst_case ~alg ~max_steps:budget ~seeds:[ 1 ] ~nprocs
          instantiate (fun _ -> Measures.zero))
  in
  let p3 = Mutex_intf.params 3 in
  worst_case "mutex wc" ~alg:"bakery" ~budget:10 ~below:6 ~nprocs:3
    (Mutex_harness.instantiate ~rounds:2 Registry.bakery p3);
  worst_case "naming wc" ~alg:"tas-scan" ~budget:5 ~below:4 ~nprocs:4
    (Naming_harness.instantiate Cfc_naming.Registry.tas_scan ~n:4);
  worst_case "detection wc" ~alg:"splitter-tree" ~budget:5 ~below:4 ~nprocs:4
    (Detect_harness.instantiate Registry.splitter_tree (Mutex_intf.params 4));
  stalls "workload" ~alg:"bakery" ~budget:50 ~below:30 (fun () ->
      Cfc_workload.Workload.run_mutex ~max_steps:50 Registry.bakery
        { Cfc_workload.Workload.n = 3; rounds = 10; mean_think = 0;
          cs_len = 3; seed = 1 });
  let out =
    Renaming_harness.run ~participants:[ 0; 1 ]
      ~pick:(Schedule.random ~seed:1) Cfc_renaming.Registry.ma_grid ~n:4
  in
  check_bool "restricted renaming: picker done" true
    (out.Runner.stopped = Runner.Picker_done);
  check_bool "non-recoverable sweep: Stalled points" true
    (Recovery_harness.stalled
       (Recovery_harness.solo_sweep Registry.tas_lock (Mutex_intf.params 2))
    <> []);
  let r, _, _ =
    Recovery_harness.chaos ~max_steps:5 ~seed:1 Registry.rec_tas p3
  in
  check_bool "chaos cut short: outcome returned" true
    (r.Adversary.outcome.Runner.stopped = Runner.Out_of_steps)

let () =
  Alcotest.run "cfc_core"
    [ ( "measures",
        [ Alcotest.test_case "wc entry window" `Quick test_wc_entry_window;
          Alcotest.test_case "cf regions" `Quick test_cf_regions;
          Alcotest.test_case "repeated entries" `Quick test_repeated_entries;
          Alcotest.test_case "decisions" `Quick test_decisions;
          Alcotest.test_case "recovery paths" `Quick test_recovery_paths;
          Alcotest.test_case "recovery rmr (cold cache, per incarnation)"
            `Quick test_recovery_rmr;
          Alcotest.test_case "exact recovery cost (all recoverable locks)"
            `Quick test_recoverable_recovery_exact;
          Alcotest.test_case "double-crash sweep (crash during recovery)"
            `Quick test_double_crash_sweep;
          Alcotest.test_case "winner fragment survives mid-exit crash"
            `Quick test_winner_fragment_survives_fault;
          QCheck_alcotest.to_alcotest prop_local_spin_vs_shared_spin ] );
      ( "streaming",
        [ Alcotest.test_case "online = materialised (registry)" `Quick
            test_online_equals_materialised_registry;
          Alcotest.test_case "online = materialised (chaos faults)" `Quick
            test_online_equals_materialised_faults;
          QCheck_alcotest.to_alcotest prop_online_equivalence;
          QCheck_alcotest.to_alcotest prop_chaos_matches_oracle;
          Alcotest.test_case "crashed holder: exclusion verdicts agree" `Quick
            test_crashed_holder_verdicts;
          QCheck_alcotest.to_alcotest prop_inc_prefixes;
          Alcotest.test_case "online feed allocates nothing per access"
            `Quick test_online_feed_no_alloc;
          QCheck_alcotest.to_alcotest prop_online_reset;
          Alcotest.test_case "cf harness: at most 12 words per access" `Quick
            test_cf_harness_alloc;
          Alcotest.test_case "cf error carries the last events" `Quick
            test_cf_error_has_recent_events;
          Alcotest.test_case "cf driver = traced solo runs (decision families)"
            `Quick test_cf_driver_equals_traced;
          Alcotest.test_case "scheduled driver: stall raises or is read"
            `Quick test_stall_rule ] );
      ( "bounds",
        [ Alcotest.test_case "spot values" `Quick test_bound_values;
          Alcotest.test_case "monotonicity" `Quick test_bound_monotone;
          Alcotest.test_case "naming table shape" `Quick
            test_naming_table_shape ] );
      ( "sandwich",
        [ QCheck_alcotest.to_alcotest prop_lower_bounds_hold;
          QCheck_alcotest.to_alcotest prop_tree_upper;
          QCheck_alcotest.to_alcotest prop_lemma3_on_detectors;
          QCheck_alcotest.to_alcotest prop_lemma6_on_detectors;
          Alcotest.test_case "bits accessed corollary" `Quick
            test_bits_accessed ] ) ]
