(* Tests for the effect-based simulator runtime: register semantics, the
   scheduler's one-access-per-step discipline, schedules, crashes, traces. *)

open Cfc_base
open Cfc_runtime

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Register semantics                                                  *)
(* ------------------------------------------------------------------ *)

let test_register_rw () =
  let m = Memory.create () in
  let r = Memory.alloc ~width:4 ~init:3 m in
  check "init" 3 (Register.read r);
  Register.write r 15;
  check "write" 15 (Register.read r);
  (match Register.write r 16 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "width overflow accepted");
  Register.reset r;
  check "reset" 3 (Register.read r)

(* Register names are built without Printf; pin them to the Printf forms
   they replaced, over multi-digit indices and ids. *)
let test_register_names () =
  let m = Memory.create () in
  let next = Memory.alloc_array ~name:"mcs.next" ~width:2 ~init:0 m 4096 in
  Array.iteri
    (fun i r ->
      Alcotest.(check string) "named array" (Printf.sprintf "mcs.next[%d]" i)
        r.Register.name)
    next;
  let r = Memory.alloc ~width:1 ~init:0 m in
  Alcotest.(check string) "unnamed register" "r4096" r.Register.name;
  let a = Memory.alloc_array ~width:1 ~init:0 m 12 in
  Array.iteri
    (fun i r ->
      Alcotest.(check string) "unnamed array" (Printf.sprintf "a[%d]" i)
        r.Register.name)
    a;
  let m = Memory.create () in
  List.iter
    (fun id ->
      let r = Memory.alloc ~width:1 ~init:0 m in
      Alcotest.(check string) "r<id>" (Printf.sprintf "r%d" id) r.Register.name)
    (List.init 11 Fun.id);
  let named = Memory.alloc ~name:"x" ~width:1 ~init:0 m in
  Alcotest.(check string) "given name kept" "x" named.Register.name

let test_register_model_enforced () =
  let m = Memory.create () in
  let r = Memory.alloc ~model:Model.tas_only ~width:1 ~init:0 m in
  (match Register.read r with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "read allowed in tas-only model");
  check "tas returns old" 0
    (Option.get (Register.bit_op r Ops.Test_and_set));
  check "tas returns old (set)" 1
    (Option.get (Register.bit_op r Ops.Test_and_set))

let test_bit_ops_semantics () =
  List.iter
    (fun (op, v, expect_v', expect_ret) ->
      let v', ret = Ops.apply op v in
      check (Ops.to_string op ^ " value") expect_v' v';
      Alcotest.(check (option int)) (Ops.to_string op ^ " ret") expect_ret ret)
    [ (Ops.Skip, 0, 0, None);
      (Ops.Skip, 1, 1, None);
      (Ops.Read, 1, 1, Some 1);
      (Ops.Write_0, 1, 0, None);
      (Ops.Test_and_reset, 1, 0, Some 1);
      (Ops.Write_1, 0, 1, None);
      (Ops.Test_and_set, 0, 1, Some 0);
      (Ops.Flip, 0, 1, None);
      (Ops.Flip, 1, 0, None);
      (Ops.Test_and_flip, 1, 0, Some 1) ]

let test_dual_involution () =
  List.iter
    (fun op ->
      Alcotest.(check bool)
        (Ops.to_string op ^ " dual involutive")
        true
        (Ops.equal op (Ops.dual (Ops.dual op))))
    Ops.all

(* dual(op) on v behaves like op on (1-v), with complemented results. *)
let test_dual_semantics () =
  List.iter
    (fun op ->
      List.iter
        (fun v ->
          let v1, r1 = Ops.apply (Ops.dual op) v in
          let v2, r2 = Ops.apply op (1 - v) in
          check (Ops.to_string op ^ " dual value") (1 - v2) v1;
          Alcotest.(check (option int))
            (Ops.to_string op ^ " dual ret")
            (Option.map (fun x -> 1 - x) r2)
            r1)
        [ 0; 1 ])
    Ops.all

(* ------------------------------------------------------------------ *)
(* Scheduler basics                                                    *)
(* ------------------------------------------------------------------ *)

(* A process that writes its pid then reads the other's register. *)
let two_writers () =
  let memory = Memory.create () in
  let (module M) = Sim_mem.mem memory in
  let a = M.alloc ~name:"a" ~width:8 ~init:0 ()
  and b = M.alloc ~name:"b" ~width:8 ~init:0 () in
  let proc own other v () =
    M.write own v;
    ignore (M.read other)
  in
  (memory, [| proc a b 7; proc b a 9 |])

let test_round_robin_interleaving () =
  let memory, procs = two_writers () in
  let out = Oracle.run ~memory ~pick:(Schedule.round_robin ()) procs in
  check_bool "completed" true (out.Runner.stopped = Runner.Quiescent);
  check "total steps" 4 out.Runner.total_steps;
  (* Round robin: p0 writes, p1 writes, p0 reads 9, p1 reads 7. *)
  let evs =
    Trace.to_list out.Runner.trace
    |> List.filter_map (fun e ->
           match e.Event.body with
           | Event.Access (r, k) -> Some (e.Event.pid, r.Register.name, k)
           | Event.Region_change _ | Event.Crash | Event.Recover -> None)
  in
  match evs with
  | [ (0, "a", Event.A_write 7); (1, "b", Event.A_write 9);
      (0, "b", Event.A_read 9); (1, "a", Event.A_read 7) ] -> ()
  | _ -> Alcotest.fail "unexpected interleaving"

let test_solo_schedule () =
  let memory, procs = two_writers () in
  let out = Oracle.run ~memory ~pick:(Schedule.solo 1) procs in
  check_bool "not all completed" false (out.Runner.stopped = Runner.Quiescent);
  check "p1 steps" 2 (Scheduler.steps_taken out.Runner.scheduler 1);
  check "p0 steps" 0 (Scheduler.steps_taken out.Runner.scheduler 0);
  check_bool "p0 never started" false (Scheduler.started out.Runner.scheduler 0)

let test_sequential_schedule () =
  let memory, procs = two_writers () in
  let out = Oracle.run ~memory ~pick:(Schedule.sequential ()) procs in
  check_bool "completed" true (out.Runner.stopped = Runner.Quiescent);
  let pids =
    Trace.to_list out.Runner.trace
    |> List.filter_map (fun e ->
           match e.Event.body with
           | Event.Access _ -> Some e.Event.pid
           | Event.Region_change _ | Event.Crash | Event.Recover -> None)
  in
  Alcotest.(check (list int)) "p0 fully before p1" [ 0; 0; 1; 1 ] pids

let test_explicit_schedule () =
  let memory, procs = two_writers () in
  let out = Oracle.run ~memory ~pick:(Schedule.of_list [ 1; 1; 0; 0 ]) procs in
  check_bool "completed" true (out.Runner.stopped = Runner.Quiescent);
  let first = Trace.get out.Runner.trace 0 in
  check "first actor" 1 first.Event.pid

let test_max_steps_cutoff () =
  let memory = Memory.create () in
  let (module M) = Sim_mem.mem memory in
  let r = M.alloc ~width:1 ~init:0 () in
  let spin () = while M.read r = 0 do () done in
  let out =
    Oracle.run ~max_steps:100 ~memory ~pick:(Schedule.solo 0) [| spin |]
  in
  check_bool "did not complete" false (out.Runner.stopped = Runner.Quiescent);
  check "exactly budget" 100 out.Runner.total_steps

(* pref_then: follows the prefix, then hands over to the continuation. *)
let test_pref_then () =
  let memory, procs = two_writers () in
  let pick =
    Schedule.pref_then [ 1; 1 ] (Schedule.round_robin ())
  in
  let out = Oracle.run ~memory ~pick procs in
  check_bool "completed" true (out.Runner.stopped = Runner.Quiescent);
  let pids =
    Trace.to_list out.Runner.trace
    |> List.filter_map (fun e ->
           match e.Event.body with
           | Event.Access _ -> Some e.Event.pid
           | Event.Region_change _ | Event.Crash | Event.Recover -> None)
  in
  (* p1's two steps from the prefix, then round-robin finishes p0. *)
  Alcotest.(check (list int)) "prefix then rr" [ 1; 1; 0; 0 ] pids

(* biased: the favored process gets the lion's share of the turns. *)
let test_biased_favoring () =
  let memory = Memory.create () in
  let (module M) = Sim_mem.mem memory in
  let regs = M.alloc_array ~width:8 ~init:0 4 in
  let p i () =
    for k = 1 to 50 do
      M.write regs.(i) (k land 255)
    done
  in
  let out =
    Oracle.run ~max_steps:80 ~memory
      ~pick:(Schedule.biased ~seed:3 ~favored:2 ~bias:16)
      (Array.init 4 (fun i -> p i))
  in
  let counts = Array.make 4 0 in
  Trace.iter
    (fun e ->
      match e.Event.body with
      | Event.Access _ -> counts.(e.Event.pid) <- counts.(e.Event.pid) + 1
      | Event.Region_change _ | Event.Crash | Event.Recover -> ())
    out.Runner.trace;
  check_bool
    (Printf.sprintf "favored %d > sum of others %d" counts.(2)
       (counts.(0) + counts.(1) + counts.(3)))
    true
    (counts.(2) > counts.(0) + counts.(1) + counts.(3))

(* ------------------------------------------------------------------ *)
(* Regions, decisions, crashes                                         *)
(* ------------------------------------------------------------------ *)

let test_regions_and_decide () =
  let memory = Memory.create () in
  let (module M) = Sim_mem.mem memory in
  let r = M.alloc ~width:1 ~init:0 () in
  let p () =
    Proc.region Event.Trying;
    M.write r 1;
    Proc.decide 42
  in
  let out = Oracle.run ~memory ~pick:(Schedule.solo 0) [| p |] in
  check_bool "completed" true (out.Runner.stopped = Runner.Quiescent);
  (match Scheduler.region out.Runner.scheduler 0 with
  | Event.Halted -> ()
  | _ -> Alcotest.fail "should end halted");
  let saw_decided =
    Trace.fold
      (fun acc e ->
        acc
        ||
        match e.Event.body with
        | Event.Region_change (Event.Decided 42) -> true
        | _ -> false)
      false out.Runner.trace
  in
  check_bool "decided event recorded" true saw_decided

let test_crash_stops_process () =
  let memory = Memory.create () in
  let (module M) = Sim_mem.mem memory in
  let r = M.alloc ~width:8 ~init:0 () in
  let p i () =
    for k = 1 to 10 do
      M.write r ((10 * i) + k)
    done
  in
  (* Crash p0 after its 3rd scheduler step. *)
  let out =
    Oracle.run ~memory ~crash_at:[ (3, 0) ]
      ~pick:(Schedule.round_robin ())
      [| p 0; p 1 |]
  in
  check_bool "completed" true (out.Runner.stopped = Runner.Quiescent);
  (match Scheduler.status out.Runner.scheduler 0 with
  | Scheduler.Crashed -> ()
  | _ -> Alcotest.fail "p0 should be crashed");
  check_bool "p0 stopped early"
    true
    (Scheduler.steps_taken out.Runner.scheduler 0 < 10);
  check "p1 ran to completion" 10 (Scheduler.steps_taken out.Runner.scheduler 1)

let test_crash_before_start () =
  let memory = Memory.create () in
  let (module M) = Sim_mem.mem memory in
  let r = M.alloc ~width:8 ~init:0 () in
  let p () = M.write r 1 in
  let out =
    Oracle.run ~memory ~crash_at:[ (0, 0) ] ~pick:(Schedule.round_robin ())
      [| p |]
  in
  check "no steps" 0 (Scheduler.steps_taken out.Runner.scheduler 0);
  check_bool "completed (quiescent)" true (out.Runner.stopped = Runner.Quiescent)

(* ------------------------------------------------------------------ *)
(* Fault plans and recovery                                            *)
(* ------------------------------------------------------------------ *)

let check_invalid name substr f =
  match f () with
  | exception Invalid_argument msg ->
    check_bool
      (Printf.sprintf "%s: message mentions %S (got %S)" name substr msg)
      true
      (let len = String.length substr in
       let rec scan i =
         i + len <= String.length msg
         && (String.sub msg i len = substr || scan (i + 1))
       in
       scan 0)
  | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")

(* Final value of the register named [name] in [memory] (registers are
   abstract through [MEM], so post-mortem reads go through the arena). *)
let final_value memory name =
  (List.find (fun r -> r.Register.name = name) (Memory.registers memory))
    .Register.value

let test_fault_validation () =
  let v plan = ignore (Fault.validate ~nprocs:2 plan) in
  check_invalid "duplicate" "duplicate" (fun () ->
      v [ Fault.crash ~step:3 ~pid:0; Fault.crash ~step:3 ~pid:0 ]);
  check_invalid "pid range" "out of range" (fun () ->
      v [ Fault.crash ~step:1 ~pid:2 ]);
  check_invalid "negative pid" "out of range" (fun () ->
      v [ Fault.crash ~step:1 ~pid:(-1) ]);
  check_invalid "negative step" "negative step" (fun () ->
      v [ Fault.crash ~step:(-1) ~pid:0 ]);
  check_invalid "double crash" "already crashed" (fun () ->
      v [ Fault.crash ~step:1 ~pid:0; Fault.crash ~step:4 ~pid:0 ]);
  check_invalid "recover uncrashed" "not crashed" (fun () ->
      v [ Fault.recover ~step:2 ~pid:1 ]);
  (* A legal plan comes back sorted by step. *)
  let sorted =
    Fault.validate ~nprocs:2
      [ Fault.recover ~step:5 ~pid:0; Fault.crash ~step:2 ~pid:0 ]
  in
  check "sorted length" 2 (List.length sorted);
  check "sorted head step" 2 (List.hd sorted).Fault.step

(* Recovery restarts the thunk from the top with fresh local state while
   shared memory persists: the restarted run sees its own earlier write. *)
let test_recover_restarts_fresh () =
  let memory = Memory.create () in
  let (module M) = Sim_mem.mem memory in
  let attempts = M.alloc ~name:"attempts" ~width:4 ~init:0 () in
  let sum = M.alloc ~name:"sum" ~width:8 ~init:0 () in
  let local_seen = ref [] in
  let p () =
    let mine = ref 0 in
    (* fresh every (re)start *)
    incr mine;
    local_seen := !mine :: !local_seen;
    M.write attempts (M.read attempts + 1);
    M.write sum 7;
    ignore (M.read sum)
  in
  let out =
    Oracle.run ~memory
      ~faults:[ Fault.crash ~step:3 ~pid:0; Fault.recover ~step:3 ~pid:0 ]
      ~pick:(Schedule.solo 0) [| p |]
  in
  check_bool "completed" true (out.Runner.stopped = Runner.Quiescent);
  (* Two starts, each with a fresh [mine]. *)
  check_bool "local state fresh on restart" true
    (!local_seen = [ 1; 1 ]);
  (* Shared memory persisted across the crash: the restarted increment
     saw the first one. *)
  check "attempts" 2 (final_value memory "attempts");
  let recovers =
    Trace.fold
      (fun acc e ->
        match e.Event.body with Event.Recover -> acc + 1 | _ -> acc)
      0 out.Runner.trace
  in
  check "one recover event" 1 recovers

let test_crash_recover_at_step0 () =
  let memory = Memory.create () in
  let (module M) = Sim_mem.mem memory in
  let r = M.alloc ~name:"r" ~width:4 ~init:0 () in
  let p () = M.write r 1 in
  let out =
    Oracle.run ~memory
      ~faults:[ Fault.crash ~step:0 ~pid:0; Fault.recover ~step:0 ~pid:0 ]
      ~pick:(Schedule.round_robin ()) [| p |]
  in
  check_bool "completed" true (out.Runner.stopped = Runner.Quiescent);
  check "write landed" 1 (final_value memory "r")

(* A recover scheduled after all runnable work has drained still fires:
   the runner fast-forwards the step clock to the pending fault. *)
let test_recover_after_quiescence () =
  let memory = Memory.create () in
  let (module M) = Sim_mem.mem memory in
  let r = M.alloc ~name:"r" ~width:8 ~init:0 () in
  let p () = M.write r (M.read r + 1) in
  let out =
    Oracle.run ~memory
      ~faults:[ Fault.crash ~step:1 ~pid:0; Fault.recover ~step:50 ~pid:0 ]
      ~pick:(Schedule.round_robin ()) [| p |]
  in
  check_bool "completed" true (out.Runner.stopped = Runner.Quiescent);
  (* First run crashed after its read; the restart performed both. *)
  check "restart completed the write" 1 (final_value memory "r")

let test_chaos_deterministic () =
  let mk seed = Fault.chaos ~seed ~nprocs:3 ~pairs:2 ~horizon:40 in
  check_bool "same seed, same plan" true (mk 7 = mk 7);
  check "pairs" 4 (List.length (mk 7));
  (* And the plans drive identical runs. *)
  let run () =
    let memory = Memory.create () in
    let (module M) = Sim_mem.mem memory in
    let r = M.alloc ~width:8 ~init:0 () in
    let p _i () =
      for _ = 1 to 6 do
        M.write r (M.read r + 1)
      done
    in
    let out =
      Oracle.run ~memory ~faults:(mk 7)
        ~pick:(Schedule.round_robin ())
        (Array.init 3 (fun i -> p i))
    in
    (out.Runner.total_steps, List.length (Trace.to_list out.Runner.trace))
  in
  check_bool "same plan, same run" true (run () = run ())

let test_out_of_steps_diagnosis () =
  let memory = Memory.create () in
  let (module M) = Sim_mem.mem memory in
  let r = M.alloc ~width:1 ~init:0 () in
  let p () =
    while M.read r = 0 do
      M.pause ()
    done
  in
  let out =
    Oracle.run ~memory ~max_steps:25 ~pick:(Schedule.solo 0) [| p |]
  in
  check_bool "not completed" false (out.Runner.stopped = Runner.Quiescent);
  (match out.Runner.stopped with
  | Runner.Out_of_steps -> ()
  | _ -> Alcotest.fail "expected Out_of_steps");
  (match Runner.diagnose ~recent:3 out with
  | [ rep ] ->
    check "report pid" 0 rep.Runner.d_pid;
    check_bool "report has steps" true (rep.Runner.d_steps > 0);
    check_bool "report has recent events" true (rep.Runner.d_recent <> [])
  | _ -> Alcotest.fail "expected one process report");
  let rendered = Format.asprintf "%a" Runner.pp_diagnosis out in
  check_bool "diagnosis mentions stop reason" true
    (String.length rendered > 0)

let test_process_error_context () =
  let memory = Memory.create () in
  let (module M) = Sim_mem.mem memory in
  let r = M.alloc ~width:4 ~init:0 () in
  let p () =
    M.write r 1;
    ignore (M.read r);
    failwith "algorithm bug"
  in
  match Oracle.run ~memory ~pick:(Schedule.solo 0) [| p |] with
  | _ -> Alcotest.fail "expected Process_error"
  | exception Runner.Process_error { pid; steps; error; recent } ->
    check "errored pid" 0 pid;
    check "steps before error" 2 steps;
    check_bool "underlying error kept" true
      (match error with Failure m -> m = "algorithm bug" | _ -> false);
    check_bool "recent events attached" true (recent <> [])

let test_model_violation_is_error () =
  let memory = Memory.create () in
  let (module M) = Sim_mem.mem memory in
  let r = M.alloc_bit ~model:Model.tas_only ~init:0 () in
  let p () = ignore (M.read r) in
  let out = Runner.run ~memory ~pick:(Schedule.solo 0) [| p |] in
  check_bool "violation detected" true (Runner.error out <> None)

(* ------------------------------------------------------------------ *)
(* Trace queries                                                       *)
(* ------------------------------------------------------------------ *)

let test_trace_measures () =
  let memory = Memory.create () in
  let (module M) = Sim_mem.mem memory in
  let a = M.alloc ~name:"a" ~width:4 ~init:0 ()
  and b = M.alloc ~name:"b" ~width:4 ~init:0 () in
  let p () =
    M.write a 1;
    ignore (M.read a);
    M.write b 2;
    M.write a 3
  in
  let out = Oracle.run ~memory ~pick:(Schedule.solo 0) [| p |] in
  let t = out.Runner.trace in
  check "steps" 4 (Oracle.step_count ~pid:0 t);
  check "registers" 2 (Oracle.distinct_registers ~pid:0 t);
  let reads, writes = Oracle.rw_step_count ~pid:0 t in
  check "reads" 1 reads;
  check "writes" 3 writes;
  let rregs, wregs = Oracle.rw_register_count ~pid:0 t in
  check "read registers" 1 rregs;
  check "written registers" 2 wregs

let test_trace_fragment_bounds () =
  let memory = Memory.create () in
  let (module M) = Sim_mem.mem memory in
  let a = M.alloc ~width:4 ~init:0 () in
  let p () =
    for i = 1 to 5 do
      M.write a i
    done
  in
  let out = Oracle.run ~memory ~pick:(Schedule.solo 0) [| p |] in
  let t = out.Runner.trace in
  check "window" 2 (Oracle.step_count ~from:1 ~until:3 ~pid:0 t)

(* Multi-grain sub-word stores (§1.3 / MS93): one step, neighbours
   untouched, whole word readable in one step. *)
let test_write_field () =
  let memory = Memory.create () in
  let (module M) = Sim_mem.mem memory in
  let w = M.alloc ~name:"w" ~width:8 ~init:0 () in
  let p () =
    M.write_field w ~index:0 ~width:2 3;
    M.write_field w ~index:3 ~width:2 2;
    ignore (M.read w)
  in
  let out = Oracle.run ~memory ~pick:(Schedule.solo 0) [| p |] in
  check "three steps" 3 (Oracle.step_count ~pid:0 out.Runner.trace);
  check "one register" 1 (Oracle.distinct_registers ~pid:0 out.Runner.trace);
  let reads, writes = Oracle.rw_step_count ~pid:0 out.Runner.trace in
  check "field writes count as writes" 2 writes;
  check "one read" 1 reads;
  (* value = 3 + 2 << 6 = 131 *)
  let last =
    Oracle.accesses_of ~pid:0 out.Runner.trace |> List.rev |> List.hd
  in
  (match last with
  | _, Event.A_read v -> check "packed value" 131 v
  | _ -> Alcotest.fail "expected read");
  (* Out-of-range / model-restricted fields are rejected. *)
  let m2 = Memory.create () in
  let (module M2) = Sim_mem.mem m2 in
  let w2 = M2.alloc ~width:4 ~init:0 () in
  let bad () = M2.write_field w2 ~index:2 ~width:2 1 in
  let out = Runner.run ~memory:m2 ~pick:(Schedule.solo 0) [| bad |] in
  check_bool "out of range rejected" true (Runner.error out <> None)

(* Memory fingerprints distinguish states and match after reset. *)
let test_memory_fingerprint () =
  let m = Memory.create () in
  let a = Memory.alloc ~width:8 ~init:0 m in
  let f0 = Memory.fingerprint m in
  Register.write a 5;
  check_bool "changed" false (Memory.fingerprint m = f0);
  Memory.reset m;
  check "restored" f0 (Memory.fingerprint m)

(* qcheck: arbitrary interleavings of independent single-writer processes
   always produce per-process step counts equal to their program length. *)
let prop_step_counts_independent =
  QCheck.Test.make ~count:100
    ~name:"independent processes keep their step counts under any schedule"
    QCheck.(pair (int_bound 1000) (int_range 1 5))
    (fun (seed, nprocs) ->
      let memory = Memory.create () in
      let (module M) = Sim_mem.mem memory in
      let regs = M.alloc_array ~width:8 ~init:0 nprocs in
      let p i () =
        for k = 1 to 7 do
          M.write regs.(i) k
        done
      in
      let out =
        Oracle.run ~memory
          ~pick:(Schedule.random ~seed)
          (Array.init nprocs (fun i -> p i))
      in
      (out.Runner.stopped = Runner.Quiescent)
      && List.for_all
           (fun pid -> Scheduler.steps_taken out.Runner.scheduler pid = 7)
           (List.init nprocs Fun.id))

(* Packed fields behave exactly like the separate registers they pack:
   applying the same random write sequence to a field-per-bit word and to
   an array of independent bits always leaves the word equal to the bits'
   binary encoding. *)
let prop_fields_equal_bits =
  QCheck.Test.make ~count:200 ~name:"write_field = independent bits"
    QCheck.(pair (int_range 1 8) (small_list (pair (int_bound 7) (int_bound 1))))
    (fun (k, writes) ->
      let memory = Memory.create () in
      let (module M) = Sim_mem.mem memory in
      let word = M.alloc ~name:"w" ~width:k ~init:0 () in
      let bits = M.alloc_array ~name:"b" ~width:1 ~init:0 k in
      let result = ref None in
      let p () =
        List.iter
          (fun (i, v) ->
            let i = i mod k in
            M.write_field word ~index:i ~width:1 v;
            M.write bits.(i) v)
          writes;
        let encoded =
          Array.to_list bits
          |> List.mapi (fun i b -> M.read b lsl i)
          |> List.fold_left ( + ) 0
        in
        result := Some (M.read word = encoded)
      in
      let out = Oracle.run ~memory ~pick:(Schedule.solo 0) [| p |] in
      (out.Runner.stopped = Runner.Quiescent) && !result = Some true)

(* Determinism: the same seed replays to the identical trace — the
   property the model checker's replay exploration rests on. *)
let prop_replay_deterministic =
  QCheck.Test.make ~count:60 ~name:"same schedule, same trace"
    QCheck.(pair (int_bound 1_000_000) (int_range 2 4))
    (fun (seed, nprocs) ->
      let run () =
        let memory = Memory.create () in
        let (module M) = Sim_mem.mem memory in
        let regs = M.alloc_array ~width:8 ~init:0 nprocs in
        let p i () =
          for k = 1 to 5 do
            M.write regs.(i) k;
            ignore (M.read regs.((i + 1) mod nprocs))
          done
        in
        let out =
          Oracle.run ~memory
            ~pick:(Schedule.random ~seed)
            (Array.init nprocs (fun i -> p i))
        in
        Trace.to_list out.Runner.trace
        |> List.map (fun e ->
               ( e.Event.pid,
                 match e.Event.body with
                 | Event.Access (r, Event.A_read v) -> (r.Register.id, 0, v)
                 | Event.Access (r, Event.A_write v) -> (r.Register.id, 1, v)
                 | Event.Access (r, _) -> (r.Register.id, 2, 0)
                 | Event.Region_change _ -> (-1, 3, 0)
                 | Event.Crash -> (-1, 4, 0)
                 | Event.Recover -> (-1, 5, 0) ))
      in
      run () = run ())

(* ------------------------------------------------------------------ *)
(* Access-time width enforcement                                       *)
(* ------------------------------------------------------------------ *)

let test_width_errors_descriptive () =
  let m = Memory.create () in
  let r = Memory.alloc ~name:"wide" ~width:4 ~init:0 m in
  check_invalid "write" "write value 16 does not fit in declared width 4"
    (fun () -> Register.write r 16);
  check_invalid "fetch_and_store"
    "fetch_and_store value 99 does not fit in declared width 4" (fun () ->
      ignore (Register.fetch_and_store r 99));
  check_invalid "compare_and_set"
    "compare_and_set value 31 does not fit in declared width 4" (fun () ->
      ignore (Register.compare_and_set r ~expected:0 31));
  check_invalid "names the register" "register wide" (fun () ->
      Register.write r 16)

let test_corrupted_bit_diagnosed () =
  (* [restore] deliberately bypasses the width check (the model checker
     and the symbolic analyzer use it to re-seat snapshots); a bit cell
     corrupted through it must still be diagnosed descriptively at the
     next operation — previously this tripped a bare assert, which
     [-noassert] silently removes. *)
  let m = Memory.create () in
  let b = Memory.alloc ~name:"bit" ~width:1 ~init:0 m in
  Register.restore b 3;
  check_invalid "corrupted bit" "value 3 is not a bit" (fun () ->
      ignore (Register.bit_op b Ops.Read))

(* ------------------------------------------------------------------ *)
(* Event wheel                                                         *)
(* ------------------------------------------------------------------ *)

let event_strings trace =
  List.rev
    (Trace.fold
       (fun acc e -> Format.asprintf "%a" Event.pp e :: acc)
       [] trace)

(* A solo run through the wheel is event-for-event the scheduler's solo
   run: same accesses, same region changes, same halt marker. *)
let test_wheel_matches_scheduler_solo () =
  let memory = Memory.create () in
  let (module M) = Sim_mem.mem memory in
  let r = M.alloc ~width:8 ~init:0 () in
  let proc () =
    Proc.region Event.Trying;
    let v = M.read r in
    M.write r (v + 1);
    Proc.region Event.Critical;
    M.write r 7;
    Proc.region Event.Remainder
  in
  let sched = Oracle.run ~memory ~pick:(Schedule.solo 0) [| proc |] in
  Memory.reset memory;
  let tr = Trace.create () in
  let wheel =
    Wheel.create ~sink:(Scheduler.trace_sink tr) ~nprocs:1
      ~spawn:(fun _ -> proc) ()
  in
  Wheel.wake wheel 0;
  check_bool "quiescent" true (Wheel.run wheel = Wheel.Quiescent);
  Alcotest.(check (list string))
    "same event stream"
    (event_strings sched.Runner.trace)
    (event_strings tr);
  check "total steps" sched.Runner.total_steps (Wheel.total_steps wheel)

(* A sleeping process leaves the active set: the virtual clock jumps
   over the delay instead of burning a turn per tick. *)
let test_wheel_sleep_jumps_clock () =
  let memory = Memory.create () in
  let (module M) = Sim_mem.mem memory in
  let r = M.alloc ~name:"r" ~width:8 ~init:0 () in
  let proc () =
    M.write r 1;
    Proc.sleep 1_000_000;
    M.write r 2
  in
  let wheel = Wheel.create ~nprocs:1 ~spawn:(fun _ -> proc) () in
  Wheel.wake wheel 0;
  check_bool "quiescent" true (Wheel.run wheel = Wheel.Quiescent);
  check "write after wake" 2 (final_value memory "r");
  check_bool "clock jumped past the delay" true (Wheel.now wheel >= 1_000_000);
  check_bool "turns stayed O(accesses)" true (Wheel.turns wheel <= 5)

(* Lazy spawn: a huge arena materialises only the processes actually
   woken. *)
let test_wheel_lazy_spawn () =
  let memory = Memory.create () in
  let (module M) = Sim_mem.mem memory in
  let r = M.alloc ~width:8 ~init:0 () in
  let calls = ref 0 in
  let spawn _pid =
    incr calls;
    fun () -> M.write r 1
  in
  let wheel = Wheel.create ~nprocs:100_000 ~spawn () in
  Wheel.wake wheel 5;
  check_bool "quiescent" true (Wheel.run wheel = Wheel.Quiescent);
  check "one spawn call" 1 !calls;
  check "one record materialised" 1 (Wheel.spawned wheel);
  check_bool "others never started" true (Wheel.status wheel 99_999 = Wheel.Runnable);
  check_bool "woken one halted" true (Wheel.status wheel 5 = Wheel.Halted)

(* Turn-keyed faults: a crash discards the incarnation's local state and
   the recover restarts the thunk from the top, exactly like the
   scheduler's fault convention. *)
let test_wheel_fault_restart_fresh () =
  let memory = Memory.create () in
  let (module M) = Sim_mem.mem memory in
  let r = M.alloc ~name:"r" ~width:8 ~init:0 () in
  let proc () =
    let v = M.read r in
    M.write r (v + 1)
  in
  let crashes = ref 0 and recoveries = ref 0 in
  let count ~pid:_ = function
    | Event.Crash -> incr crashes
    | Event.Recover -> incr recoveries
    | Event.Access _ | Event.Region_change _ -> ()
  in
  let wheel =
    Wheel.create ~sink:count
      ~faults:[ Fault.crash ~step:1 ~pid:0; Fault.recover ~step:1 ~pid:0 ]
      ~nprocs:1
      ~spawn:(fun _ -> proc)
      ()
  in
  Wheel.wake wheel 0;
  check_bool "quiescent" true (Wheel.run wheel = Wheel.Quiescent);
  check "one crash" 1 !crashes;
  check "one recovery" 1 !recoveries;
  (* First incarnation crashed between its read and its write; the
     restart performed both against the unchanged register. *)
  check "restart was fresh" 1 (final_value memory "r");
  check "steps count both incarnations" 3 (Wheel.steps_taken wheel 0);
  check_bool "halted" true (Wheel.status wheel 0 = Wheel.Halted)

(* Same-tick pops are FIFO in wake order, and a full run (sleeps + chaos
   faults) is bit-for-bit deterministic. *)
let test_wheel_fifo_and_deterministic () =
  let run () =
    let memory = Memory.create () in
    let (module M) = Sim_mem.mem memory in
    let rs = Array.init 3 (fun i -> M.alloc ~name:(Printf.sprintf "r%d" i) ~width:8 ~init:0 ()) in
    let spawn pid () =
      M.write rs.(pid) 1;
      Proc.sleep ((pid * 5) + 1);
      M.write rs.(pid) 2
    in
    let tr = Trace.create () in
    let wheel =
      Wheel.create ~sink:(Scheduler.trace_sink tr)
        ~faults:(Fault.chaos ~seed:9 ~nprocs:3 ~pairs:2 ~horizon:30)
        ~nprocs:3 ~spawn ()
    in
    Wheel.wake wheel 2;
    Wheel.wake wheel 0;
    Wheel.wake wheel 1;
    check_bool "quiescent" true (Wheel.run wheel = Wheel.Quiescent);
    (event_strings tr, Wheel.now wheel, Wheel.turns wheel,
     Wheel.total_steps wheel)
  in
  let es1, now1, turns1, steps1 = run () in
  let es2, now2, turns2, steps2 = run () in
  (match es1 with
  | first :: _ ->
    let contains s sub =
      let rec scan i =
        i + String.length sub <= String.length s
        && (String.sub s i (String.length sub) = sub || scan (i + 1))
      in
      scan 0
    in
    check_bool
      ("first event from first-woken pid: " ^ first)
      true (contains first "p2")
  | [] -> Alcotest.fail "empty event stream");
  Alcotest.(check (list string)) "same event stream" es1 es2;
  check "same now" now1 now2;
  check "same turns" turns1 turns2;
  check "same steps" steps1 steps2

(* The shared step's sleep rule, under a picker with no clock: a step
   stops at a sleep (after at most one access) and the next step resumes
   through it to the next access. *)
let test_scheduler_sleep_rule () =
  let memory = Memory.create () in
  let (module M) = Sim_mem.mem memory in
  let r = M.alloc ~name:"r" ~width:8 ~init:0 () in
  let trace = Trace.create () in
  let sched =
    Scheduler.create ~memory ~trace
      [| (fun () -> M.write r 1; Proc.sleep 5; M.write r 2);
         (fun () -> Proc.sleep 3; M.write r 3) |]
  in
  let results pid =
    List.init 2 (fun _ ->
        match Scheduler.step sched pid with
        | Scheduler.Progress -> "progress"
        | Scheduler.Asleep d -> Printf.sprintf "asleep %d" d
        | Scheduler.Finished -> "finished"
        | Scheduler.Not_runnable -> "not runnable")
  in
  Alcotest.(check (list string)) "access, then park at the sleep"
    [ "asleep 5"; "finished" ] (results 0);
  check "p0 steps" 2 (Scheduler.steps_taken sched 0);
  check "write after the sleep" 2 (final_value memory "r");
  Alcotest.(check (list string)) "a leading sleep parks with no access"
    [ "asleep 3"; "finished" ] (results 1);
  check "p1 steps" 1 (Scheduler.steps_taken sched 1);
  check "sleeps are not events" 5 (Trace.length trace);
  let out =
    Oracle.run ~memory ~pick:(Schedule.round_robin ())
      [| (fun () -> Proc.sleep 1; M.write r 4; Proc.sleep 1; M.write r 5) |]
  in
  check_bool "round robin completes" true (out.Runner.stopped = Runner.Quiescent);
  check "round robin steps" 2 out.Runner.total_steps

(* The shared step's rule for a caught register-op exception, on the
   wheel: the process goes on within the same turn, the failed operation
   is not a step, and nothing is reported as an error. *)
let test_wheel_caught_register_error () =
  let memory = Memory.create () in
  let (module M) = Sim_mem.mem memory in
  let narrow = M.alloc ~name:"narrow" ~width:1 ~init:0 () in
  let r = M.alloc ~name:"r" ~width:8 ~init:0 () in
  let spawn _ () =
    (try M.write narrow 2 with Invalid_argument _ -> ());
    M.write r 1
  in
  let wheel = Wheel.create ~nprocs:1 ~spawn () in
  Wheel.wake wheel 0;
  check_bool "quiescent" true (Wheel.run wheel = Wheel.Quiescent);
  check_bool "halted" true (Wheel.status wheel 0 = Wheel.Halted);
  check "one turn" 1 (Wheel.turns wheel);
  check "only the good write is a step" 1 (Wheel.steps_taken wheel 0);
  check "narrow untouched" 0 (final_value memory "narrow");
  check "write went through" 1 (final_value memory "r");
  check_bool "no error" true (Wheel.first_error wheel = None);
  (* uncaught, the same failure is the process's error *)
  let wheel =
    Wheel.create ~nprocs:1 ~spawn:(fun _ () -> M.write narrow 2) ()
  in
  Wheel.wake wheel 0;
  ignore (Wheel.run wheel);
  match Wheel.first_error wheel with
  | Some (0, Invalid_argument _) -> check "no step" 0 (Wheel.steps_taken wheel 0)
  | _ -> Alcotest.fail "uncaught register error not reported"

(* qcheck: the wheel runs its queue in strict (tick, seq) order.  Random
   processes (one write per turn, with sleeps between writes) are woken
   in random batches between budgeted runs, under a random crash/recover
   plan.  A reference model keeps the queue as a plain list, takes the
   least (tick, seq) entry at every turn, drops entries whose stamp a
   crash or recover moved on, and applies due faults before each turn
   as {!Fault.run} does.  The pids the wheel runs (one access event per
   turn), its live peak, clock and turn count must be the model's. *)
type model_proc = {
  mutable exists : bool;  (* a record was materialised (woken or crashed) *)
  mutable mstatus : [ `Runnable | `Halted | `Crashed ];
  mutable pos : int;  (* the next write of its script *)
  mutable epoch : int;  (* stands for the scheduler's stamp *)
}

let prop_wheel_heap_order =
  let gen =
    QCheck.Gen.(
      let* nprocs = int_range 1 140 in
      let* scripts =
        array_repeat nprocs (list_size (int_range 1 4) (int_bound 3))
      in
      let* batches =
        list_size (int_range 1 4)
          (pair (int_range 1 60)
             (list_size (int_range 0 40)
                (pair (int_bound (nprocs - 1)) (int_bound 5))))
      in
      let* pairs = int_bound 8 in
      let* seed = int in
      return (nprocs, scripts, batches, pairs, seed))
  in
  QCheck.Test.make ~count:150 ~name:"wheel pops = sorted live entries"
    (QCheck.make gen) (fun (nprocs, scripts, batches, pairs, seed) ->
      let memory = Memory.create () in
      let (module M) = Sim_mem.mem memory in
      let regs = M.alloc_array ~width:8 ~init:0 nprocs in
      (* write j of pid's script, then sleep (its last write ends it) *)
      let spawn pid () =
        let script = Array.of_list scripts.(pid) in
        Array.iteri
          (fun j d ->
            M.write regs.(pid) (j land 0xff);
            if d > 0 && j < Array.length script - 1 then Proc.sleep d)
          script
      in
      let horizon = 1 + Array.fold_left (fun a l -> a + List.length l) 0 scripts in
      let faults = Fault.chaos ~seed ~nprocs ~pairs ~horizon in
      let ran = ref [] in
      let sink ~pid = function
        | Event.Access _ -> ran := pid :: !ran
        | _ -> ()
      in
      let wheel = Wheel.create ~sink ~faults ~nprocs ~spawn () in
      (* the reference *)
      let procs =
        Array.init nprocs (fun _ ->
            { exists = false; mstatus = `Runnable; pos = 0; epoch = 0 })
      in
      let queue = ref [] and seq = ref 0 and peak = ref 0 in
      let now = ref 0 and clock = ref 0 and pending = ref faults in
      let expected = ref [] in
      let push tick pid =
        queue := (tick, !seq, pid, procs.(pid).epoch) :: !queue;
        incr seq;
        peak := max !peak (List.length !queue)
      in
      let rec pop () =
        match List.sort compare !queue with
        | [] -> None
        | ((tick, _, pid, epoch) as e) :: _ ->
          queue := List.filter (fun x -> x != e) !queue;
          if epoch <> procs.(pid).epoch then pop () else Some (tick, pid)
      in
      let apply (f : Fault.point) =
        let p = procs.(f.pid) in
        p.exists <- true;
        match (f.kind, p.mstatus) with
        | Fault.Crash, `Runnable ->
          p.mstatus <- `Crashed;
          p.epoch <- p.epoch + 1
        | Fault.Recover, `Crashed ->
          p.mstatus <- `Runnable;
          p.pos <- 0;
          p.epoch <- p.epoch + 1;
          push !now f.pid
        | _ -> ()
      in
      let rec model_run max_turns =
        match !pending with
        | f :: rest when f.Fault.step <= !clock ->
          pending := rest;
          apply f;
          model_run max_turns
        | _ when !clock >= max_turns -> ()
        | _ -> (
          match pop () with
          | None -> (
            match !pending with
            | [] -> ()
            | f :: _ ->
              clock := max !clock f.Fault.step;
              model_run max_turns)
          | Some (tick, pid) ->
            now := max !now tick;
            expected := pid :: !expected;
            let p = procs.(pid) and script = Array.of_list scripts.(pid) in
            let j = p.pos in
            if j = Array.length script - 1 then p.mstatus <- `Halted
            else begin
              p.pos <- j + 1;
              push (!now + max 1 script.(j)) pid
            end;
            incr clock;
            model_run max_turns)
      in
      let budget = ref 0 in
      let run max_turns =
        model_run max_turns;
        if max_turns = max_int then
          ignore (Wheel.run wheel : Wheel.stopped)
        else ignore (Wheel.run ~max_turns wheel : Wheel.stopped)
      in
      List.iter
        (fun (turns, wakes) ->
          List.iter
            (fun (pid, later) ->
              let at = Wheel.now wheel + later in
              let p = procs.(pid) in
              if not p.exists then begin
                p.exists <- true;
                push at pid
              end;
              Wheel.wake ~at wheel pid)
            wakes;
          budget := !budget + turns;
          run !budget)
        batches;
      run max_int;
      List.rev !ran = List.rev !expected
      && Wheel.live_peak wheel = !peak
      && Wheel.now wheel = !now
      && Wheel.turns wheel = !clock)

(* ------------------------------------------------------------------ *)
(* Run-ahead: a wheel step with nothing else queued runs the process's
   next accesses inline.  None of it may be observable.                *)
(* ------------------------------------------------------------------ *)

(* [me]'s solo run of [alg] at [p], through Runner's solo picker (one
   access per step) and through the wheel (one run-ahead step), each on
   a fresh system, under the same fault plan. *)
let solo_both ?(faults = []) alg p me =
  let n = p.Cfc_mutex.Mutex_intf.n in
  let memory, procs = Cfc_core.Mutex_harness.system alg p () in
  let out = Oracle.run ~faults ~memory ~pick:(Schedule.solo me) procs in
  let _, procs = Cfc_core.Mutex_harness.system alg p () in
  let tr = Trace.create () in
  let wheel =
    Wheel.create ~sink:(Scheduler.trace_sink tr) ~faults ~nprocs:n
      ~spawn:(Array.get procs) ()
  in
  Wheel.wake wheel me;
  check_bool "wheel quiescent" true (Wheel.run wheel = Wheel.Quiescent);
  (out, wheel, tr)

let check_same_solo ~what (out, wheel, tr) =
  Alcotest.(check (list string))
    (what ^ ": same events")
    (event_strings out.Runner.trace)
    (event_strings tr);
  for pid = 0 to Wheel.nprocs wheel - 1 do
    check (Printf.sprintf "%s: p%d steps" what pid)
      (Scheduler.steps_taken out.Runner.scheduler pid)
      (Wheel.steps_taken wheel pid)
  done

let test_run_ahead_solo_registry () =
  let module Mi = Cfc_mutex.Mutex_intf in
  let runs alg n pids =
    let (module A : Mi.ALG) = alg in
    let p = Mi.params n in
    if A.supports p then
      List.iter
        (fun me ->
          check_same_solo
            ~what:(Printf.sprintf "%s n=%d p%d" A.name n me)
            (solo_both alg p me))
        pids
  in
  List.iter (fun alg -> runs alg 4 [ 0; 1; 2; 3 ]) Cfc_mutex.Registry.all;
  runs Cfc_mutex.Registry.bakery 64 [ 0; 31; 63 ]

(* A sole process that pauses and sleeps: a pause or a sleep ends the
   run-ahead, and the clock and the turn count come out as they did
   when every access was a turn of its own (pinned from that engine). *)
let test_run_ahead_pause_sleep () =
  let memory = Memory.create () in
  let (module M) = Sim_mem.mem memory in
  let r = M.alloc ~name:"r" ~width:8 ~init:0 () in
  let proc () =
    M.write r 1;
    M.pause ();
    M.write r 2;
    M.write r 3;
    Proc.sleep 7;
    M.write r 4;
    M.pause ();
    M.pause ();
    ignore (M.read r);
    Proc.sleep 0;
    M.write r 5;
    ignore (M.read r)
  in
  let wheel = Wheel.create ~nprocs:1 ~spawn:(fun _ -> proc) () in
  Wheel.wake wheel 0;
  check_bool "quiescent" true (Wheel.run wheel = Wheel.Quiescent);
  check "steps" 7 (Wheel.steps_taken wheel 0);
  check "turns" 10 (Wheel.turns wheel);
  check "now" 15 (Wheel.now wheel);
  check "live peak" 1 (Wheel.live_peak wheel);
  check "last write" 5 (final_value memory "r")

(* Faults fire between turns: a run-ahead stops short of the next fault
   point, so a crash-restart at any turn of a solo run lands where it
   lands under Runner. *)
let test_run_ahead_stops_at_faults () =
  let module Mi = Cfc_mutex.Mutex_intf in
  let alg = Cfc_mutex.Registry.bakery and p = Mi.params 4 and me = 2 in
  let out, _, _ = solo_both alg p me in
  for k = 0 to out.Runner.total_steps + 1 do
    let faults = [ Fault.crash ~step:k ~pid:me; Fault.recover ~step:k ~pid:me ] in
    check_same_solo ~what:(Printf.sprintf "crash-restart at %d" k)
      (solo_both ~faults alg p me)
  done

(* A turn limit is a run-ahead limit too: exactly k turns, k steps. *)
let test_run_ahead_max_turns () =
  let module Mi = Cfc_mutex.Mutex_intf in
  let p = Mi.params 4 in
  let _, wheel, _ = solo_both Cfc_mutex.Registry.bakery p 1 in
  let total = Wheel.total_steps wheel in
  for k = 1 to total - 1 do
    let _, procs = Cfc_core.Mutex_harness.system Cfc_mutex.Registry.bakery p () in
    let wheel = Wheel.create ~nprocs:4 ~spawn:(Array.get procs) () in
    Wheel.wake wheel 1;
    check_bool "out of turns" true
      (Wheel.run ~max_turns:k wheel = Wheel.Out_of_turns);
    check (Printf.sprintf "turns, limit %d" k) k (Wheel.turns wheel);
    check (Printf.sprintf "steps, limit %d" k) k (Wheel.total_steps wheel);
    check (Printf.sprintf "now, limit %d" k) (k - 1) (Wheel.now wheel)
  done

(* One range check, in the scheduler's pid table, for both pick
   policies. *)
let test_pid_out_of_range () =
  let memory = Memory.create () in
  let wheel = Wheel.create ~nprocs:4 ~spawn:(fun _ () -> ()) () in
  let sched =
    Scheduler.create ~memory ~trace:(Trace.create ())
      (Array.make 4 (fun () -> ()))
  in
  let expect name pid f =
    check_invalid name (Printf.sprintf "pid %d out of range (nprocs = 4)" pid) f
  in
  expect "Wheel.status" 99 (fun () -> ignore (Wheel.status wheel 99));
  expect "Wheel.steps_taken" (-1) (fun () -> ignore (Wheel.steps_taken wheel (-1)));
  expect "Wheel.region" 4 (fun () -> ignore (Wheel.region wheel 4));
  expect "Wheel.wake" 4 (fun () -> Wheel.wake wheel 4);
  expect "Scheduler.status" 4 (fun () -> ignore (Scheduler.status sched 4));
  expect "Scheduler.step" (-1) (fun () -> ignore (Scheduler.step sched (-1)));
  expect "Scheduler.crash" 7 (fun () -> Scheduler.crash sched 7);
  check "nothing spawned" 0 (Wheel.spawned wheel);
  check_bool "in range still fine" true (Wheel.status wheel 3 = Wheel.Runnable)

(* Trace folds must be stack-safe on recording-scale traces: a million
   events through fold and fold_states without overflow. *)
let test_trace_fold_million_events () =
  let tr = Trace.create () in
  for i = 1 to 1_000_000 do
    ignore
      (Trace.record tr ~pid:(i land 1)
         (Event.Region_change
            (if i land 1 = 0 then Event.Trying else Event.Remainder)))
  done;
  check "length" 1_000_000 (Trace.length tr);
  check "fold visits all" 1_000_000 (Trace.fold (fun acc _ -> acc + 1) 0 tr);
  check "fold_states visits all" 1_000_000
    (Trace.fold_states ~nprocs:2 (fun acc _ _ -> acc + 1) 0 tr)

(* ------------------------------------------------------------------ *)
(* Checkpoint/undo: restore frees what it drops, rebuild replays from
   the arena's cursor                                                  *)
(* ------------------------------------------------------------------ *)

(* The observation oracle the model checker keeps, read off the trace:
   each process's access answers since its last (re)start. *)
let trace_oracle trace pid =
  Trace.fold
    (fun acc e ->
      if e.Event.pid <> pid then acc
      else
        match e.Event.body with
        | Event.Access (_, k) -> k :: acc
        | Event.Crash | Event.Recover -> []
        | Event.Region_change _ -> acc)
    [] trace
  |> List.rev

(* One undo as the model checker does it: scheduler, register values and
   trace back to the checkpoint. *)
let undo sched memory trace (snap, vals, len) =
  Scheduler.restore sched snap;
  Memory.restore_values memory vals;
  Trace.truncate trace len

let checkpoint sched memory trace =
  (Scheduler.snapshot sched, Memory.values memory, Trace.length trace)

let last_event trace = Format.asprintf "%a" Event.pp (Trace.get trace (Trace.length trace - 1))

(* A process's cleanup runs exactly once per continuation [restore]
   invalidates (the fiber is discontinued, not left for the GC), never
   for a process the abandoned branch did not touch, and the rebuilt
   process re-suspends at the same access, which then observes the same
   value. *)
let test_restore_discontinues () =
  let memory = Memory.create () in
  let (module M) = Sim_mem.mem memory in
  let r = M.alloc ~name:"r" ~width:4 ~init:0 () in
  let unwound = Array.make 2 0 in
  (* effects the process body performs, counted on their way out *)
  let performed = ref 0 in
  let counting f =
    Effect.Deep.match_with f ()
      { retc = Fun.id;
        exnc = raise;
        effc =
          (fun eff ->
            Some
              (fun k ->
                incr performed;
                Effect.Deep.continue k (Effect.perform eff))) }
  in
  let proc pid () =
    Fun.protect
      ~finally:(fun () -> unwound.(pid) <- unwound.(pid) + 1)
      (fun () ->
        counting (fun () ->
            for i = 1 to 4 do
              M.write r i;
              ignore (M.read r);
              M.pause ()
            done))
  in
  let trace = Trace.create () in
  let sched =
    Scheduler.create ~oracle:(trace_oracle trace) ~memory ~trace
      [| proc 0; proc 1 |]
  in
  ignore (Scheduler.step sched 1);
  ignore (Scheduler.step sched 0);
  let ck = checkpoint sched memory trace in
  ignore (Scheduler.step sched 0);
  let seen = last_event trace in
  check "untouched processes keep their fiber" 0 (unwound.(0) + unwound.(1));
  undo sched memory trace ck;
  check "restore unwinds the dropped fiber once" 1 unwound.(0);
  check "the untouched process is left alone" 0 unwound.(1);
  let before = !performed in
  ignore (Scheduler.step sched 0);
  Alcotest.(check string) "rebuilt at the same access" seen (last_event trace);
  (* the replayed write is answered from the cursor: only the read the
     rebuild stops at and the pause after it are performed *)
  check "replayed prefix performs no effect" 2 (!performed - before);
  check "the rebuild unwinds nothing" 1 unwound.(0);
  (* a pause and two accesses deep, then back again *)
  ignore (Scheduler.step sched 0);
  ignore (Scheduler.step sched 0);
  ignore (Scheduler.step sched 0);
  undo sched memory trace ck;
  check "a second abandoned branch unwinds once more" 2 unwound.(0);
  ignore (Scheduler.step sched 0);
  Alcotest.(check string) "rebuilt again" seen (last_event trace);
  Scheduler.dispose sched;
  check "dispose unwinds every live fiber" 3 unwound.(0);
  check "including the untouched one" 1 unwound.(1)

(* A rebuild skips the region changes of the replayed prefix: they were
   recorded when they first happened, so no effect is performed for
   them, and the rebuilt process's region is the one the checkpoint
   holds.  Undoing one process's step with [snapshot_pid_into] and
   [restore_pid] leaves the scheduler as a whole-state [restore] does. *)
let test_rebuild_skips_regions () =
  let memory = Memory.create () in
  let (module M) = Sim_mem.mem memory in
  let r = M.alloc ~name:"r" ~width:4 ~init:0 () in
  let regions = ref 0 in
  let counting f =
    Effect.Deep.match_with f ()
      { retc = Fun.id;
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Proc.E_region _ ->
              Some
                (fun (k : (a, _) Effect.Deep.continuation) ->
                  incr regions;
                  Effect.Deep.continue k (Effect.perform eff))
            | _ -> None) }
  in
  let proc () =
    counting (fun () ->
        for i = 1 to 3 do
          Proc.region Event.Trying;
          M.write r i;
          Proc.region Event.Critical;
          ignore (M.read r);
          Proc.region Event.Remainder
        done)
  in
  let trace = Trace.create () in
  let sched =
    Scheduler.create ~oracle:(trace_oracle trace) ~memory ~trace
      [| proc; proc |]
  in
  (* taken before any step: only [snapshot_pid_into] brings it up to
     date *)
  let pid_snap = Scheduler.snapshot sched in
  for _ = 1 to 3 do
    ignore (Scheduler.step sched 0)
  done;
  ignore (Scheduler.step sched 1);
  let ck = checkpoint sched memory trace in
  Scheduler.snapshot_pid_into sched pid_snap 0;
  let fields () =
    List.init 2 (fun pid ->
        ( Scheduler.steps_taken sched pid,
          Scheduler.stamp sched pid,
          Format.asprintf "%a" Event.pp_region (Scheduler.region sched pid) ))
  in
  let at_ck = fields () in
  ignore (Scheduler.step sched 0);
  let seen = last_event trace in
  undo sched memory trace ck;
  check_bool "restore: back at the checkpoint" true (fields () = at_ck);
  let before = !regions in
  ignore (Scheduler.step sched 0);
  Alcotest.(check string) "rebuilt at the same access" seen (last_event trace);
  (* the replayed prefix (write, read, write) held five region changes;
     only the two after the new read are performed *)
  check "prefix regions skipped" 2 (!regions - before);
  Scheduler.restore_pid sched pid_snap 0;
  Memory.restore_values memory (let _, vals, _ = ck in vals);
  Trace.truncate trace (let _, _, len = ck in len);
  check_bool "restore_pid: back at the checkpoint" true (fields () = at_ck);
  ignore (Scheduler.step sched 0);
  Alcotest.(check string) "rebuilt again" seen (last_event trace);
  Scheduler.dispose sched

(* A process never started has no fiber for [dispose] to unwind. *)
let test_dispose_unstarted () =
  let memory = Memory.create () in
  let (module M) = Sim_mem.mem memory in
  let r = M.alloc ~width:4 ~init:0 () in
  let unwound = ref 0 in
  let proc () = Fun.protect ~finally:(fun () -> incr unwound) (fun () -> M.write r 1) in
  let trace = Trace.create () in
  let sched = Scheduler.create ~memory ~trace [| proc; proc |] in
  ignore (Scheduler.step sched 0);
  Scheduler.dispose sched;
  Scheduler.dispose sched;
  check "only the started, suspended process unwinds, once" 1 !unwound

(* A rebuild whose oracle disagrees with the process raises
   [Replay_mismatch] — for every access kind, and for a recording that
   runs out — and leaves the arena's replay cursor clear, so a later run
   on the same arena performs real accesses. *)
let test_replay_mismatch () =
  let memory = Memory.create () in
  let (module M) = Sim_mem.mem memory in
  let r = M.alloc ~name:"r" ~width:4 ~init:0 () in
  let b = M.alloc ~name:"b" ~width:1 ~init:0 () in
  let cases =
    [ ("read", (fun () -> ignore (M.read r)), Event.A_write 0);
      ("write", (fun () -> M.write r 1), Event.A_read 0);
      ( "field",
        (fun () -> M.write_field r ~index:0 ~width:2 1),
        Event.A_read 0 );
      ("xchg", (fun () -> ignore (M.fetch_and_store r 1)), Event.A_read 0);
      ( "cas",
        (fun () -> ignore (M.compare_and_set r ~expected:0 1)),
        Event.A_read 0 );
      ( "bit",
        (fun () -> ignore (M.bit_op b Ops.Test_and_set)),
        Event.A_read 0 ) ]
  in
  let expect_mismatch name doctored op =
    Memory.reset memory;
    let trace = Trace.create () in
    let sched =
      Scheduler.create ~oracle:(fun _ -> doctored) ~memory ~trace
        [| (fun () -> op (); ignore (M.read r); ignore (M.read r)) |]
    in
    ignore (Scheduler.step sched 0);
    let ck = checkpoint sched memory trace in
    ignore (Scheduler.step sched 0);
    undo sched memory trace ck;
    (match Scheduler.step sched 0 with
    | exception Scheduler.Replay_mismatch _ -> ()
    | _ -> Alcotest.fail (name ^ ": doctored replay accepted"));
    let cur = Memory.cursor memory in
    check_bool (name ^ ": cursor cleared") false (Memory.replaying cur);
    check_bool (name ^ ": no answers left") true (Memory.replay_stop cur)
  in
  List.iter
    (fun (name, op, wrong) -> expect_mismatch (name ^ " kind") [ wrong ] op)
    cases;
  List.iter
    (fun (name, op, _) -> expect_mismatch (name ^ " exhausted") [] op)
    cases;
  (* the arena performs real accesses again, on both engines *)
  Memory.reset memory;
  let out =
    Oracle.run ~memory ~pick:(Schedule.solo 0)
      [| (fun () -> M.write r 5; ignore (M.read r)) |]
  in
  check "scheduler writes through" 5 (final_value memory "r");
  check "scheduler records both accesses" 2 out.Runner.total_steps;
  let wheel =
    Wheel.create ~nprocs:1 ~spawn:(fun _ () -> M.write r 9) ()
  in
  Wheel.wake wheel 0;
  check_bool "wheel quiescent" true (Wheel.run wheel = Wheel.Quiescent);
  check "wheel writes through" 9 (final_value memory "r")

(* A process that catches the exception of a failed register op and goes
   on.  Its first incarnation finds [r] = 0, sets it and writes 2 into the
   1-bit [b], which fails without an event; any later incarnation finds
   [r] = 1 and skips both.  Then it reads, writes and reads [s]. *)
let failing_system () =
  let memory = Memory.create () in
  let (module M) = Sim_mem.mem memory in
  let r = M.alloc ~name:"r" ~width:4 ~init:0 () in
  let b = M.alloc ~name:"b" ~width:1 ~init:0 () in
  let s = M.alloc ~name:"s" ~width:4 ~init:0 () in
  let proc () =
    if M.read r = 0 then begin
      M.write r 1;
      try M.write b 2 with Invalid_argument _ -> ()
    end;
    ignore (M.read s);
    M.write s 5;
    ignore (M.read s)
  in
  let trace = Trace.create () in
  let sched =
    Scheduler.create ~oracle:(trace_oracle trace) ~memory ~trace [| proc |]
  in
  (memory, trace, sched)

let events trace =
  List.init (Trace.length trace) (fun i ->
      Format.asprintf "%a" Event.pp (Trace.get trace i))

let step_n sched k =
  for _ = 1 to k do
    ignore (Scheduler.step sched 0)
  done

let step_out sched =
  while Scheduler.status sched 0 = Scheduler.Runnable do
    ignore (Scheduler.step sched 0)
  done

(* The end of a run: its events, the process's steps and status. *)
let run_end trace sched =
  ( events trace,
    Scheduler.steps_taken sched 0,
    match Scheduler.status sched 0 with
    | Scheduler.Halted -> "halted"
    | Scheduler.Runnable -> "runnable"
    | Scheduler.Crashed -> "crashed"
    | Scheduler.Errored e -> "errored: " ^ Printexc.to_string e )

let run_end_t = Alcotest.(triple (list string) int string)

let check_halted what (_, _, status) =
  Alcotest.(check string) (what ^ " halts") "halted" status

(* A rebuild raises a caught register-op failure again at the same call:
   undoing to a checkpoint taken before or after the failing step and
   stepping on gives the events, step count and status of a run that
   was never undone. *)
let test_rebuild_replays_failure () =
  let expected =
    let _, trace, sched = failing_system () in
    step_out sched;
    run_end trace sched
  in
  check_halted "the plain run" expected;
  let memory, trace, sched = failing_system () in
  step_n sched 2;
  let before = checkpoint sched memory trace in
  (* the failed write, caught, then the read of [s] *)
  step_n sched 1;
  let after = checkpoint sched memory trace in
  step_out sched;
  Alcotest.check run_end_t "advanced" expected (run_end trace sched);
  undo sched memory trace after;
  step_out sched;
  Alcotest.check run_end_t "undone to after the failure" expected
    (run_end trace sched);
  undo sched memory trace before;
  step_out sched;
  Alcotest.check run_end_t "undone to before the failure" expected
    (run_end trace sched)

(* [recover] starts the failure log afresh: the rebuild of the new
   incarnation, which skips the failing write, does not raise the old
   failure (at its third call, that would end it as [Errored]).  The log
   is part of the checkpoint, so undoing across the recover brings the
   old one back. *)
let test_recover_clears_failures () =
  let memory, trace, sched = failing_system () in
  step_n sched 3;
  let failed = checkpoint sched memory trace in
  Scheduler.crash sched 0;
  Scheduler.recover sched 0;
  step_n sched 2;
  let ck = checkpoint sched memory trace in
  step_out sched;
  let expected = run_end trace sched in
  check_halted "the new incarnation" expected;
  undo sched memory trace ck;
  step_out sched;
  Alcotest.check run_end_t "undone in the new incarnation" expected
    (run_end trace sched);
  undo sched memory trace failed;
  step_out sched;
  let plain =
    let _, trace, sched = failing_system () in
    step_out sched;
    run_end trace sched
  in
  Alcotest.check run_end_t "undone across the recover" plain
    (run_end trace sched)

let () =
  Alcotest.run "cfc_runtime"
    [ ( "registers",
        [ Alcotest.test_case "read/write/width/reset" `Quick test_register_rw;
          Alcotest.test_case "register names" `Quick test_register_names;
          Alcotest.test_case "model enforcement" `Quick
            test_register_model_enforced;
          Alcotest.test_case "bit op semantics" `Quick test_bit_ops_semantics;
          Alcotest.test_case "dual involution" `Quick test_dual_involution;
          Alcotest.test_case "dual semantics" `Quick test_dual_semantics;
          Alcotest.test_case "width errors descriptive" `Quick
            test_width_errors_descriptive;
          Alcotest.test_case "corrupted bit diagnosed" `Quick
            test_corrupted_bit_diagnosed ] );
      ( "scheduler",
        [ Alcotest.test_case "round robin interleaving" `Quick
            test_round_robin_interleaving;
          Alcotest.test_case "solo" `Quick test_solo_schedule;
          Alcotest.test_case "sequential" `Quick test_sequential_schedule;
          Alcotest.test_case "explicit" `Quick test_explicit_schedule;
          Alcotest.test_case "max steps cutoff" `Quick test_max_steps_cutoff;
          Alcotest.test_case "pref_then" `Quick test_pref_then;
          Alcotest.test_case "biased favoring" `Quick test_biased_favoring ] );
      ( "regions+crashes",
        [ Alcotest.test_case "regions and decide" `Quick
            test_regions_and_decide;
          Alcotest.test_case "crash stops process" `Quick
            test_crash_stops_process;
          Alcotest.test_case "crash before start" `Quick
            test_crash_before_start;
          Alcotest.test_case "model violation" `Quick
            test_model_violation_is_error ] );
      ( "faults+recovery",
        [ Alcotest.test_case "plan validation" `Quick test_fault_validation;
          Alcotest.test_case "recover restarts fresh" `Quick
            test_recover_restarts_fresh;
          Alcotest.test_case "crash+recover at step 0" `Quick
            test_crash_recover_at_step0;
          Alcotest.test_case "recover after quiescence" `Quick
            test_recover_after_quiescence;
          Alcotest.test_case "chaos deterministic" `Quick
            test_chaos_deterministic;
          Alcotest.test_case "out-of-steps diagnosis" `Quick
            test_out_of_steps_diagnosis;
          Alcotest.test_case "process error context" `Quick
            test_process_error_context ] );
      ( "trace",
        [ Alcotest.test_case "write_field" `Quick test_write_field;
          Alcotest.test_case "measures" `Quick test_trace_measures;
          Alcotest.test_case "fragment bounds" `Quick
            test_trace_fragment_bounds;
          Alcotest.test_case "memory fingerprint" `Quick
            test_memory_fingerprint;
          Alcotest.test_case "folds stack-safe at a million events" `Quick
            test_trace_fold_million_events;
          QCheck_alcotest.to_alcotest prop_step_counts_independent;
          QCheck_alcotest.to_alcotest prop_fields_equal_bits;
          QCheck_alcotest.to_alcotest prop_replay_deterministic ] );
      ( "wheel",
        [ Alcotest.test_case "solo run matches the scheduler" `Quick
            test_wheel_matches_scheduler_solo;
          Alcotest.test_case "sleep jumps the clock" `Quick
            test_wheel_sleep_jumps_clock;
          Alcotest.test_case "lazy spawn" `Quick test_wheel_lazy_spawn;
          Alcotest.test_case "fault restart is fresh" `Quick
            test_wheel_fault_restart_fresh;
          Alcotest.test_case "same-tick FIFO + determinism" `Quick
            test_wheel_fifo_and_deterministic;
          Alcotest.test_case "caught register error: same turn" `Quick
            test_wheel_caught_register_error;
          QCheck_alcotest.to_alcotest prop_wheel_heap_order ] );
      ( "run-ahead",
        [ Alcotest.test_case "solo = Runner's solo (registry)" `Quick
            test_run_ahead_solo_registry;
          Alcotest.test_case "pauses and sleeps keep turns and now" `Quick
            test_run_ahead_pause_sleep;
          Alcotest.test_case "stops at every fault point" `Quick
            test_run_ahead_stops_at_faults;
          Alcotest.test_case "max_turns: exactly k turns and steps" `Quick
            test_run_ahead_max_turns ] );
      ( "shared step",
        [ Alcotest.test_case "sleep under the scheduler" `Quick
            test_scheduler_sleep_rule;
          Alcotest.test_case "pid out of range" `Quick
            test_pid_out_of_range ] );
      ( "checkpoint/undo",
        [ Alcotest.test_case "restore discontinues dropped fibers" `Quick
            test_restore_discontinues;
          Alcotest.test_case "dispose skips unstarted processes" `Quick
            test_dispose_unstarted;
          Alcotest.test_case "replay mismatch clears the cursor" `Quick
            test_replay_mismatch;
          Alcotest.test_case "rebuild raises a caught failure again" `Quick
            test_rebuild_replays_failure;
          Alcotest.test_case "recover starts a fresh failure log" `Quick
            test_recover_clears_failures;
          Alcotest.test_case "rebuild skips regions; one-process undo" `Quick
            test_rebuild_skips_regions ] ) ]
