(* Tests for the bounded model checker: exhaustive verification of the
   small configurations, and — crucially — the ability to FIND a planted
   violation (a checker that cannot fail cannot verify either). *)

open Cfc_base
open Cfc_runtime
open Cfc_mutex
open Cfc_mcheck

let check_bool = Alcotest.(check bool)

let expect_ok name = function
  | Explore.Ok stats ->
    check_bool (name ^ " explored something") true (stats.Explore.runs > 0)
  | Explore.Violation { violation; schedule; _ } ->
    Alcotest.failf "%s: %a (schedule %s)" name Cfc_core.Spec.pp_violation
      violation
      (String.concat "," (List.map string_of_int schedule))

(* A deliberately broken "lock" (test-and-test-and-set without atomicity:
   read then write) to prove the checker catches real races. *)
module Broken_lock : Mutex_intf.ALG = struct
  let name = "broken-lock"
  let supports (p : Mutex_intf.params) = p.Mutex_intf.n >= 2
  let atomicity (_ : Mutex_intf.params) = 1
  let predicted_cf_steps (_ : Mutex_intf.params) = None
  let predicted_cf_registers (_ : Mutex_intf.params) = None
  let recovery (_ : Mutex_intf.params) = None

  module Make (M : Cfc_base.Mem_intf.MEM) = struct
    type t = { flag : M.reg }

    let create (_ : Mutex_intf.params) =
      { flag = M.alloc ~name:"broken.flag" ~width:1 ~init:0 () }

    let lock t ~me:_ =
      (* Race: both processes can read 0 before either writes 1. *)
      while M.read t.flag = 1 do
        M.pause ()
      done;
      M.write t.flag 1

    let unlock t ~me:_ = M.write t.flag 0
  end
end

let test_finds_planted_race () =
  match Props.check_mutex (module Broken_lock) (Mutex_intf.params 2) with
  | Explore.Ok _ -> Alcotest.fail "missed the planted race"
  | Explore.Violation { schedule; violation; _ } ->
    check_bool "non-trivial schedule" true (List.length schedule > 0);
    check_bool "describes exclusion failure" true
      (violation.Cfc_core.Spec.what <> "")

(* The counterexample replays deterministically to the same violation. *)
let test_counterexample_replays () =
  match Props.check_mutex (module Broken_lock) (Mutex_intf.params 2) with
  | Explore.Ok _ -> Alcotest.fail "missed the planted race"
  | Explore.Violation { schedule; _ } ->
    let out =
      Explore.replay
        ~system:
          (Cfc_core.Mutex_harness.system (module Broken_lock)
             (Mutex_intf.params 2))
        ~schedule
    in
    let bad =
      Cfc_core.Spec.mutual_exclusion out.Runner.trace ~nprocs:2 <> None
      || List.exists
           (fun pid ->
             match Scheduler.status out.Runner.scheduler pid with
             | Scheduler.Errored _ -> true
             | _ -> false)
           [ 0; 1 ]
    in
    check_bool "replay reproduces violation" true bad

(* Exhaustive verification of the real algorithms at n=2 (and n=3 for the
   cheap ones). *)
let test_mutex_n2_exhaustive () =
  List.iter
    (fun (module A : Mutex_intf.ALG) ->
      let p = Mutex_intf.params 2 in
      if A.supports p then
        expect_ok (A.name ^ " n=2") (Props.check_mutex (module A) p))
    Registry.all

let test_tree_l2_n3 () =
  let config =
    { Explore.max_depth = 80; max_steps_per_proc = 30; max_states = 400_000 }
  in
  expect_ok "tree n=3 l=2"
    (Props.check_mutex ~config Registry.tree { Mutex_intf.n = 3; l = 2 })

let test_mutex_two_rounds () =
  (* Re-entry (rounds=2) exercises state restoration after unlock. *)
  List.iter
    (fun alg ->
      let (module A : Mutex_intf.ALG) = alg in
      let p = Mutex_intf.params 2 in
      let config =
        { Explore.max_depth = 80; max_steps_per_proc = 40;
          max_states = 400_000 }
      in
      expect_ok
        (A.name ^ " n=2 rounds=2")
        (Props.check_mutex ~config ~rounds:2 alg p))
    [ Registry.lamport_fast; Registry.peterson_tournament;
      Registry.kessels_tournament; Registry.tas_lock; Registry.mcs;
      Registry.ms_packed ]

let test_detectors_exhaustive () =
  List.iter
    (fun (module D : Mutex_intf.DETECTOR) ->
      List.iter
        (fun (n, l) ->
          let p = { Mutex_intf.n; l } in
          if D.supports p then
            expect_ok
              (Printf.sprintf "%s n=%d l=%d" D.name n l)
              (Props.check_detector (module D) p))
        [ (2, 4); (3, 4); (3, 1) ])
    Registry.detectors

let test_naming_exhaustive () =
  List.iter
    (fun (module A : Cfc_naming.Naming_intf.ALG) ->
      List.iter
        (fun n ->
          if A.supports ~n then
            expect_ok
              (Printf.sprintf "%s n=%d" A.name n)
              (Props.check_naming (module A) ~n))
        [ 2; 4 ])
    Cfc_naming.Registry.all

(* The flat "chunked splitter" this project originally shipped for the
   §2.6 claim: write the id chunk by chunk, gate, then verify chunks.
   Pairwise it is sound, but with n >= 3 a third process sharing a chunk
   value can restore it between verification reads — the model checker
   found a 16-step two-winner counterexample at n=3, l=1, which led to
   the splitter-tree replacement.  Kept as a regression fixture: the
   checker must keep finding this bug. *)
module Broken_chunked : Mutex_intf.DETECTOR = struct
  let name = "broken-chunked-splitter"
  let supports (p : Mutex_intf.params) = p.Mutex_intf.n >= 1 && p.Mutex_intf.l >= 1
  let atomicity (p : Mutex_intf.params) =
    min p.Mutex_intf.l (Ixmath.bits_needed p.Mutex_intf.n)
  let predicted_cf_steps (_ : Mutex_intf.params) = None
  let predicted_wc_steps (_ : Mutex_intf.params) = None

  module Make (M : Cfc_base.Mem_intf.MEM) = struct
    type t = { l : int; x : M.reg array; y : M.reg }

    let create (p : Mutex_intf.params) =
      let n = p.Mutex_intf.n and l = p.Mutex_intf.l in
      let m = Ixmath.ceil_div (Ixmath.bits_needed n) l in
      {
        l;
        x = M.alloc_array ~name:"bx" ~width:(min l (Ixmath.bits_needed n))
            ~init:0 m;
        y = M.alloc ~name:"by" ~width:1 ~init:0 ();
      }

    let chunk t id j = (id lsr (j * t.l)) land (Ixmath.pow2 t.l - 1)

    let detect t ~me =
      let id = me + 1 in
      let m = Array.length t.x in
      for j = 0 to m - 1 do
        M.write t.x.(j) (chunk t id j)
      done;
      if M.read t.y = 1 then false
      else begin
        M.write t.y 1;
        let ok = ref true in
        for j = 0 to m - 1 do
          if M.read t.x.(j) <> chunk t id j then ok := false
        done;
        !ok
      end
  end
end

let test_finds_chunked_splitter_bug () =
  (* Sound for n=2 (pairwise argument holds)... *)
  expect_ok "chunked n=2"
    (Props.check_detector (module Broken_chunked) { Mutex_intf.n = 2; l = 1 });
  (* ...but broken for n=3 with chunk collisions. *)
  match
    Props.check_detector (module Broken_chunked) { Mutex_intf.n = 3; l = 1 }
  with
  | Explore.Ok _ -> Alcotest.fail "missed the chunked-splitter unsoundness"
  | Explore.Violation { schedule; _ } ->
    check_bool "counterexample within 20 steps" true
      (List.length schedule <= 20)

(* The recoverable lock, exhaustively verified under the crash-recovery
   fault model: every interleaving of 2 processes with up to 2
   crash-recovery pairs injected at every possible point (per CLAUDE.md:
   model-check a new algorithm before trusting paper arguments). *)
let test_recoverable_n2_crash_recovery () =
  match
    Props.check_mutex_recoverable ~pairs:2 Registry.rec_tas
      (Mutex_intf.params 2)
  with
  | Explore.Ok stats ->
    check_bool "explored runs" true (stats.Explore.runs > 0);
    check_bool "not truncated (exhaustive within bounds)" false
      stats.Explore.truncated
  | Explore.Violation { violation; schedule; _ } ->
    Alcotest.failf "recoverable-tas n=2: %a (schedule %s)"
      Cfc_core.Spec.pp_violation violation
      (String.concat ","
         (List.map (Format.asprintf "%a" Explore.pp_action) schedule))

(* Without fault injection the recoverable lock is just another mutex. *)
let test_recoverable_n2_crash_free () =
  expect_ok "recoverable-tas n=2 crash-free"
    (Props.check_mutex Registry.rec_tas (Mutex_intf.params 2))

(* A deliberately broken recoverable lock, kept as a regression fixture
   mirroring the chunked splitter below: acquisition is a sound CAS, but
   ownership is additionally cached in a per-process hint register that
   the release clears only AFTER freeing the lock — and recovery trusts
   the hint without re-reading the owner register.  Crash in that window
   and the restarted incarnation walks straight into a critical section
   someone else can also win.  The fault-aware checker must find this;
   the crash-free checker must not (the lock is correct without
   crashes). *)
module Broken_recovery : Mutex_intf.ALG = struct
  let name = "broken-recovery"
  let supports (p : Mutex_intf.params) = p.Mutex_intf.n >= 1
  let atomicity (p : Mutex_intf.params) = Ixmath.bits_needed p.Mutex_intf.n
  let predicted_cf_steps (_ : Mutex_intf.params) = None
  let predicted_cf_registers (_ : Mutex_intf.params) = None
  let recovery (_ : Mutex_intf.params) = None

  module Make (M : Cfc_base.Mem_intf.MEM) = struct
    type t = { owner : M.reg; mine : M.reg array }

    let create (p : Mutex_intf.params) =
      let n = p.Mutex_intf.n in
      {
        owner =
          M.alloc ~name:"brec.owner" ~width:(Ixmath.bits_needed n) ~init:0 ();
        mine = M.alloc_array ~name:"brec.mine" ~width:1 ~init:0 n;
      }

    let lock t ~me =
      (* BUG: the stale hint is trusted; the owner register is never
         re-read on restart. *)
      if M.read t.mine.(me) = 1 then ()
      else begin
        while not (M.compare_and_set t.owner ~expected:0 (me + 1)) do
          M.pause ()
        done;
        M.write t.mine.(me) 1
      end

    let unlock t ~me =
      (* BUG amplifier: the lock is freed before the hint is cleared, so
         a crash between the two writes leaves a dangling hint. *)
      M.write t.owner 0;
      M.write t.mine.(me) 0
  end
end

let test_finds_broken_recovery () =
  (* Crash-free the lock is correct... *)
  expect_ok "broken-recovery crash-free"
    (Props.check_mutex (module Broken_recovery) (Mutex_intf.params 2));
  (* ...but one crash-recovery pair exposes the stale hint. *)
  match
    Props.check_mutex_recoverable ~pairs:1 (module Broken_recovery)
      (Mutex_intf.params 2)
  with
  | Explore.Ok _ -> Alcotest.fail "missed the stale-hint recovery bug"
  | Explore.Violation { schedule; violation; _ } ->
    check_bool "schedule contains a crash" true
      (List.exists
         (function Explore.Crash _ -> true | _ -> false)
         schedule);
    check_bool "schedule contains a recovery" true
      (List.exists
         (function Explore.Recover _ -> true | _ -> false)
         schedule);
    check_bool "describes the failure" true
      (violation.Cfc_core.Spec.what <> "");
    (* The counterexample replays deterministically. *)
    let out =
      Explore.replay_actions
        ~system:
          (Cfc_core.Mutex_harness.system (module Broken_recovery)
             (Mutex_intf.params 2))
        ~schedule
    in
    let bad =
      Cfc_core.Spec.mutual_exclusion_recoverable out.Runner.trace ~nprocs:2
      <> None
      || List.exists
           (fun pid ->
             match Scheduler.status out.Runner.scheduler pid with
             | Scheduler.Errored _ -> true
             | _ -> false)
           [ 0; 1 ]
    in
    check_bool "replay reproduces violation" true bad

(* The queue-lock variant of the same mistake, kept in the library
   ({!Cfc_mcheck.Fixtures}) so the benchmark's committed verdicts refute
   the very same module: intent recorded before the enqueue forges a
   grant for the restarted incarnation.  Refuted at both n=2 and n=3 —
   the counterexample needs only one crash–recovery pair. *)
let test_finds_broken_recovery_queue () =
  List.iter
    (fun n ->
      let p = Mutex_intf.params n in
      expect_ok
        (Printf.sprintf "broken-recovery-queue n=%d crash-free" n)
        (Props.check_mutex Fixtures.broken_recovery_queue p);
      match
        Props.check_mutex_recoverable ~pairs:1 Fixtures.broken_recovery_queue
          p
      with
      | Explore.Ok _ ->
        Alcotest.failf "missed the forged-grant recovery bug at n=%d" n
      | Explore.Violation { schedule; violation; _ } ->
        check_bool "schedule contains a crash" true
          (List.exists
             (function Explore.Crash _ -> true | _ -> false)
             schedule);
        check_bool "describes the failure" true
          (violation.Cfc_core.Spec.what <> "");
        (* The counterexample replays deterministically. *)
        let out =
          Explore.replay_actions
            ~system:
              (Cfc_core.Mutex_harness.system Fixtures.broken_recovery_queue p)
            ~schedule
        in
        check_bool "replay reproduces violation" true
          (Cfc_core.Spec.mutual_exclusion_recoverable out.Runner.trace
             ~nprocs:n
          <> None))
    [ 2; 3 ]

(* The recoverable queue lock under exhaustive fault injection.  The
   default bounds truncate on depth before covering every interleaving
   of two crash–recovery pairs, so this test widens them until the
   exploration is complete — every schedule of 2 processes with 2
   crash–recovery pairs each is covered (131,718 states, well inside the
   budget).  At n=3 full coverage is out of reach (3M+ states), so the
   check is a deliberately bounded sweep capped by max_states, same
   practice as the benchmark's n=3 entries. *)
let test_rec_queue_crash_recovery () =
  (match
     Props.check_mutex_recoverable
       ~config:
         { Explore.max_depth = 90; max_steps_per_proc = 40;
           max_states = 2_000_000 }
       ~pairs:2 Registry.rec_queue (Mutex_intf.params 2)
   with
  | Explore.Ok stats ->
    check_bool "n=2 explored runs" true (stats.Explore.runs > 0);
    check_bool "n=2 not truncated (exhaustive within bounds)" false
      stats.Explore.truncated
  | Explore.Violation { violation; schedule; _ } ->
    Alcotest.failf "recoverable-queue n=2: %a (schedule %s)"
      Cfc_core.Spec.pp_violation violation
      (String.concat ","
         (List.map (Format.asprintf "%a" Explore.pp_action) schedule)));
  match
    Props.check_mutex_recoverable
      ~config:
        { Explore.max_depth = 90; max_steps_per_proc = 25;
          max_states = 150_000 }
      ~pairs:1 Registry.rec_queue (Mutex_intf.params 3)
  with
  | Explore.Ok stats -> check_bool "n=3 explored runs" true (stats.Explore.runs > 0)
  | Explore.Violation { violation; _ } ->
    Alcotest.failf "recoverable-queue n=3: %a" Cfc_core.Spec.pp_violation
      violation

(* A broken naming "algorithm" (plain read/write, cannot break symmetry):
   the checker must find duplicate names. *)
module Broken_naming : Cfc_naming.Naming_intf.ALG = struct
  let name = "broken-naming"
  let model = Model.read_write
  let supports ~n = n >= 2
  let predicted_cf_steps ~n:_ = None
  let predicted_wc_steps ~n:_ = None
  let predicted_cf_registers ~n:_ = None
  let predicted_wc_registers ~n:_ = None

  module Make (M : Cfc_base.Mem_intf.MEM) = struct
    type t = { counter : M.reg array; n : int }

    let create ~n =
      { counter = M.alloc_array ~name:"ctr" ~width:1 ~init:0 8; n }

    (* Read a unary counter, claim the next slot — non-atomically. *)
    let run t =
      let rec first_zero i =
        if i >= Array.length t.counter then i
        else if M.read t.counter.(i) = 0 then i
        else first_zero (i + 1)
      in
      let i = first_zero 0 in
      M.write t.counter.(min i (Array.length t.counter - 1)) 1;
      min (i + 1) t.n
  end
end

let test_finds_naming_race () =
  match Props.check_naming (module Broken_naming) ~n:2 with
  | Explore.Ok _ -> Alcotest.fail "missed duplicate names"
  | Explore.Violation { violation; _ } ->
    check_bool "duplicate found" true
      (violation.Cfc_core.Spec.what <> "")

(* ------------------------------------------------------------------ *)
(* Engine equivalence: both rollback policies must be indistinguishable
   from the reference explorer, which re-executes every node on a fresh
   system ([Oracle.explore]) — same verdicts, same counterexample
   schedules and the same exact {runs; states; pruned; truncated}. *)

let pp_stats ppf (s : Explore.stats) =
  Format.fprintf ppf
    "{runs=%d; states=%d; pruned_dedup=%d; pruned_sym=%d; pruned_por=%d; \
     fp_collisions=%d; seen_pop=%d; seen_cap=%d; truncated=%b}"
    s.Explore.runs s.Explore.states s.Explore.pruned_dedup s.Explore.pruned_sym
    s.Explore.pruned_por s.Explore.fp_collisions s.Explore.seen_pop
    s.Explore.seen_cap s.Explore.truncated

let pp_gen_result pp_schedule ppf = function
  | Explore.Ok s -> Format.fprintf ppf "Ok %a" pp_stats s
  | Explore.Violation { schedule; violation; stats } ->
    Format.fprintf ppf "Violation {schedule=%a; %a; %a}" pp_schedule schedule
      Cfc_core.Spec.pp_violation violation pp_stats stats

let pp_int_schedule ppf s =
  Format.fprintf ppf "[%s]" (String.concat ";" (List.map string_of_int s))

let pp_action_schedule ppf s =
  Format.fprintf ppf "[%s]"
    (String.concat ";" (List.map (Format.asprintf "%a" Explore.pp_action) s))

let result_t : Explore.result Alcotest.testable =
  Alcotest.testable (pp_gen_result pp_int_schedule) ( = )

let fault_result_t : Explore.fault_result Alcotest.testable =
  Alcotest.testable (pp_gen_result pp_action_schedule) ( = )

let engines =
  [ ("incremental", Explore.Incremental); ("replay", Explore.Replay) ]

(* [run engine] under each rollback policy = [reference]. *)
let check_policies t name ~reference run =
  List.iter
    (fun (ename, engine) ->
      Alcotest.check t (Printf.sprintf "%s: %s = oracle" name ename) reference
        (run engine))
    engines

(* The reference searches for the [Props] problems, with the oracle's own
   whole-trace checkers where it has one. *)
let oracle_check_mutex alg p =
  Oracle.explore ~system:(Cfc_core.Mutex_harness.system alg p)
    ~check:Oracle.mutual_exclusion ()

let oracle_check_recoverable ~pairs alg p =
  Oracle.explore_faults ~pairs ~system:(Cfc_core.Mutex_harness.system alg p)
    ~check:Oracle.mutual_exclusion_recoverable ()

let oracle_check_naming alg ~n =
  Oracle.explore ~symmetry:(Symmetry.identical ~nprocs:n)
    ~system:(Cfc_core.Naming_harness.system alg ~n)
    ~check:(fun trace ~nprocs -> Cfc_core.Spec.unique_names trace ~nprocs ~n)
    ()

let test_engine_equivalence_registry () =
  List.iter
    (fun ((module A : Mutex_intf.ALG) as alg) ->
      let p = Mutex_intf.params 2 in
      if A.supports p then
        check_policies result_t (A.name ^ " n=2")
          ~reference:(oracle_check_mutex alg p)
          (fun engine -> Props.check_mutex ~engine alg p))
    Registry.all;
  List.iter
    (fun ((module A : Cfc_naming.Naming_intf.ALG) as alg) ->
      if A.supports ~n:2 then
        check_policies result_t (A.name ^ " naming n=2")
          ~reference:(oracle_check_naming alg ~n:2)
          (fun engine -> Props.check_naming ~engine alg ~n:2))
    Cfc_naming.Registry.all

let test_engine_equivalence_broken () =
  let p2 = Mutex_intf.params 2 in
  check_policies result_t "broken-lock"
    ~reference:(oracle_check_mutex (module Broken_lock) p2)
    (fun engine -> Props.check_mutex ~engine (module Broken_lock) p2);
  let p3 = { Mutex_intf.n = 3; l = 1 } in
  check_policies result_t "broken-chunked n=3"
    ~reference:
      (Oracle.explore
         ~system:(Cfc_core.Detect_harness.system (module Broken_chunked) p3)
         ~check:(fun trace ~nprocs ->
           Cfc_core.Spec.at_most_one_winner trace ~nprocs)
         ())
    (fun engine -> Props.check_detector ~engine (module Broken_chunked) p3);
  check_policies fault_result_t "broken-recovery pairs=1"
    ~reference:(oracle_check_recoverable ~pairs:1 (module Broken_recovery) p2)
    (fun engine ->
      Props.check_mutex_recoverable ~engine ~pairs:1 (module Broken_recovery)
        p2);
  check_policies fault_result_t "recoverable-tas pairs=2"
    ~reference:(oracle_check_recoverable ~pairs:2 Registry.rec_tas p2)
    (fun engine ->
      Props.check_mutex_recoverable ~engine ~pairs:2 Registry.rec_tas p2);
  check_policies result_t "broken-naming"
    ~reference:(oracle_check_naming (module Broken_naming) ~n:2)
    (fun engine -> Props.check_naming ~engine (module Broken_naming) ~n:2)

let test_symmetric_still_refutes () =
  let expect_race = function
    | Explore.Ok _ -> Alcotest.fail "symmetric reduction hid the naming race"
    | Explore.Violation { violation; _ } ->
      Alcotest.(check bool) "duplicate found" true
        (violation.Cfc_core.Spec.what <> "")
  in
  let reference = oracle_check_naming (module Broken_naming) ~n:2 in
  expect_race reference;
  check_policies result_t "symmetric broken-naming" ~reference (fun engine ->
      Props.check_naming ~engine ~symmetric:true (module Broken_naming) ~n:2)

(* ------------------------------------------------------------------ *)
(* State-key regression: the pre-rewrite fingerprint packed access kinds
   into magic integer ranges (A_xchg as [20_000 + v], A_cas as
   [30_000 + 2·expected + success], A_field as [10_000 + 64·i + w]), so
   an exchange writing 10_001 aliased a successful CAS with expected=0.
   The variant-typed key must keep every such pair distinct. *)

let test_state_key_kinds_distinct () =
  let key kind =
    let cl = { State_key.reg = 0; kind } in
    { State_key.k_regvals = [| 0 |];
      k_procs =
        [| { State_key.k_status = 0; k_region = Event.Remainder;
             k_obs_hash = State_key.cell_hash 0 cl; k_obs = [ cl ] } |] }
  in
  let distinct what a b =
    Alcotest.(check bool) what false (State_key.equal (key a) (key b))
  in
  (* 20_000 + 10_001 = 30_000 + 2·0 + 1 under the old packing. *)
  distinct "xchg 10_001 vs cas(0,_,true)"
    (Event.A_xchg (10_001, 7))
    (Event.A_cas (0, 7, true));
  (* 20_000 + v collides with 30_000 + 2e + s for every v >= 10_000. *)
  distinct "xchg 10_004 vs cas(2,_,false)"
    (Event.A_xchg (10_004, 0))
    (Event.A_cas (2, 0, false));
  (* 10_000 + 64·i + w reaches the xchg band at large field indexes. *)
  distinct "field(156,16,_) vs xchg 6" (Event.A_field (156, 16, 3))
    (Event.A_xchg (6, 3));
  (* Same packed value, different observed results must also differ. *)
  distinct "cas success vs failure" (Event.A_cas (0, 7, true))
    (Event.A_cas (0, 7, false));
  Alcotest.(check bool) "identical cells compare equal" true
    (State_key.equal
       (key (Event.A_xchg (10_001, 7)))
       (key (Event.A_xchg (10_001, 7))))

(* Typed key functions.  [State_key.equal] and [State_key.hash] are
   typed code in place of polymorphic [=] and closure folds, and the
   engine folds each cell's digest once into two rolling hashes.  Each
   must agree with the polymorphic reference in [Oracle]: on keys built
   from every access kind, every region ([Decided] included) and every
   status tag, whose observation lists share their tails physically, are
   copies of each other, or differ. *)

let random_kind rs =
  let v () = Random.State.int rs 3 in
  match Random.State.int rs 6 with
  | 0 -> Event.A_read (v ())
  | 1 -> Event.A_write (v ())
  | 2 -> Event.A_field (v (), 1 + v (), v ())
  | 3 -> Event.A_xchg (v (), v ())
  | 4 -> Event.A_cas (v (), v (), Random.State.bool rs)
  | _ ->
    Event.A_bit
      ( List.nth Ops.all (Random.State.int rs (List.length Ops.all)),
        if Random.State.bool rs then Some (v ()) else None )

(* [k] with exactly one operand changed. *)
let perturb_kind rs (k : Event.access_kind) =
  let bump v = v + 1 in
  let pick3 = Random.State.int rs 3 in
  match k with
  | Event.A_read v -> Event.A_read (bump v)
  | Event.A_write v -> Event.A_write (bump v)
  | Event.A_field (i, w, v) ->
    if pick3 = 0 then Event.A_field (bump i, w, v)
    else if pick3 = 1 then Event.A_field (i, bump w, v)
    else Event.A_field (i, w, bump v)
  | Event.A_xchg (v, o) ->
    if Random.State.bool rs then Event.A_xchg (bump v, o)
    else Event.A_xchg (v, bump o)
  | Event.A_cas (e, d, ok) ->
    if pick3 = 0 then Event.A_cas (bump e, d, ok)
    else if pick3 = 1 then Event.A_cas (e, bump d, ok)
    else Event.A_cas (e, d, not ok)
  | Event.A_bit (op, r) -> (
    match (pick3, r) with
    | 0, _ ->
      let others = List.filter (fun o -> o <> op) Ops.all in
      Event.A_bit (List.nth others (Random.State.int rs (List.length others)), r)
    | 1, Some v -> Event.A_bit (op, Some (bump v))
    | _, Some _ -> Event.A_bit (op, None)
    | _, None -> Event.A_bit (op, Some 0))

let random_cell rs =
  { State_key.reg = Random.State.int rs 2; kind = random_kind rs }

let random_region rs =
  match Random.State.int rs 6 with
  | 0 -> Event.Remainder
  | 1 -> Event.Trying
  | 2 -> Event.Critical
  | 3 -> Event.Exiting
  | 4 -> Event.Halted
  | _ -> Event.Decided (Random.State.int rs 2)

(* The rolling hash as the engine folds it: one digest per cell. *)
let engine_obs_hash obs =
  List.fold_left
    (fun h c -> State_key.fold_digest h (State_key.cell_digest c))
    0 (List.rev obs)

let proc_of ~status ~region obs =
  { State_key.k_status = status; k_region = region;
    k_obs_hash = engine_obs_hash obs; k_obs = obs }

let random_key rs ~nprocs ~nregs =
  { State_key.k_regvals = Array.init nregs (fun _ -> Random.State.int rs 3);
    k_procs =
      Array.init nprocs (fun _ ->
          proc_of ~status:(Random.State.int rs 4) ~region:(random_region rs)
            (List.init (Random.State.int rs 4) (fun _ -> random_cell rs))) }

let with_proc (k : State_key.t) i p =
  let procs = Array.copy k.State_key.k_procs in
  procs.(i) <- p;
  { k with State_key.k_procs = procs }

(* A second key from [k]: an equal one sharing nothing, an equal one
   sharing the observation lists, both extended by a cell on a shared
   tail, one field changed, an unrelated one, or one of another shape. *)
let derive rs (k : State_key.t) =
  let nprocs = Array.length k.State_key.k_procs in
  let i = Random.State.int rs nprocs in
  let p = k.State_key.k_procs.(i) in
  match Random.State.int rs 6 with
  | 0 ->
    let copy_proc p =
      proc_of ~status:p.State_key.k_status ~region:p.State_key.k_region
        (List.map (fun c -> { c with State_key.reg = c.State_key.reg })
           p.State_key.k_obs)
    in
    (k, { State_key.k_regvals = Array.copy k.State_key.k_regvals;
          k_procs = Array.map copy_proc k.State_key.k_procs })
  | 1 ->
    let share p = { p with State_key.k_status = p.State_key.k_status } in
    (k, { k with State_key.k_procs = Array.map share k.State_key.k_procs })
  | 2 ->
    let c1 = random_cell rs in
    let c2 =
      if Random.State.bool rs then { c1 with State_key.reg = c1.State_key.reg }
      else random_cell rs
    in
    let push c =
      proc_of ~status:p.State_key.k_status ~region:p.State_key.k_region
        (c :: p.State_key.k_obs)
    in
    (with_proc k i (push c1), with_proc k i (push c2))
  | 3 ->
    let b =
      match Random.State.int rs 5 with
      | 0 ->
        let regvals = Array.copy k.State_key.k_regvals in
        let j = Random.State.int rs (Array.length regvals) in
        regvals.(j) <- Random.State.int rs 3;
        { k with State_key.k_regvals = regvals }
      | 1 -> with_proc k i { p with State_key.k_status = Random.State.int rs 4 }
      | 2 -> with_proc k i { p with State_key.k_region = random_region rs }
      | 3 ->
        let h = p.State_key.k_obs_hash + Random.State.int rs 2 in
        with_proc k i { p with State_key.k_obs_hash = h }
      | _ ->
        (* another list under the same stored hash: equality must walk
           the lists, whatever their lengths *)
        let obs =
          match (Random.State.int rs 4, p.State_key.k_obs) with
          | 0, _ :: tl -> tl
          | 1, obs -> random_cell rs :: obs
          | 2, c :: tl ->
            (* one operand of one cell changed, the tail shared *)
            let c' =
              if Random.State.bool rs then
                { c with State_key.reg = c.State_key.reg + 1 }
              else { c with State_key.kind = perturb_kind rs c.State_key.kind }
            in
            c' :: tl
          | _, obs -> List.map (fun _ -> random_cell rs) obs
        in
        with_proc k i { p with State_key.k_obs = obs }
    in
    (k, b)
  | 4 -> (k, random_key rs ~nprocs ~nregs:(Array.length k.State_key.k_regvals))
  | _ ->
    ( k,
      random_key rs ~nprocs:(1 + Random.State.int rs 3)
        ~nregs:(1 + Random.State.int rs 3) )

let prop_typed_key_functions =
  QCheck.Test.make ~count:300
    ~name:"typed key equal and hashes = polymorphic references"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rs = Random.State.make [| seed |] in
      List.for_all
        (fun _ ->
          let k =
            random_key rs ~nprocs:(1 + Random.State.int rs 3)
              ~nregs:(1 + Random.State.int rs 3)
          in
          let a, b = derive rs k in
          let eq = State_key.equal a b in
          let agrees (k : State_key.t) =
            State_key.hash k = Oracle.key_hash k
            && Array.for_all
                 (fun p ->
                   let obs = p.State_key.k_obs in
                   engine_obs_hash obs = Oracle.obs_hash obs
                   && List.fold_left State_key.cell_hash 0 (List.rev obs)
                      = Oracle.obs_hash obs)
                 k.State_key.k_procs
          in
          eq = Oracle.key_equal a b
          && ((not eq) || State_key.hash a = State_key.hash b)
          && State_key.equal a a
          && agrees a && agrees b)
        (List.init 50 Fun.id))

(* An exchange-based lock whose register values live in the >= 10_000
   range that used to alias other access kinds; the exploration must
   still verify it, under both rollback policies and in the reference
   explorer alike. *)
module Big_values : Mutex_intf.ALG = struct
  let name = "big-values"
  let supports (p : Mutex_intf.params) = p.Mutex_intf.n = 2
  let atomicity (_ : Mutex_intf.params) = 15
  let predicted_cf_steps (_ : Mutex_intf.params) = None
  let predicted_cf_registers (_ : Mutex_intf.params) = None
  let recovery (_ : Mutex_intf.params) = None

  module Make (M : Cfc_base.Mem_intf.MEM) = struct
    type t = { owner : M.reg }

    let create (_ : Mutex_intf.params) =
      { owner = M.alloc ~name:"big.owner" ~width:15 ~init:0 () }

    (* Process 0 acquires by CAS, process 1 by exchange with a sentinel
       chosen so the old packing would alias the two observations. *)
    let lock t ~me =
      if me = 0 then
        while not (M.compare_and_set t.owner ~expected:0 10_002) do
          M.pause ()
        done
      else
        while M.fetch_and_store t.owner 10_001 <> 0 do
          M.pause ()
        done

    let unlock t ~me:_ = M.write t.owner 0
  end
end

let test_large_register_values () =
  let p = Mutex_intf.params 2 in
  let reference = oracle_check_mutex (module Big_values) p in
  expect_ok "big-values n=2" reference;
  check_policies result_t "big-values" ~reference (fun engine ->
      Props.check_mutex ~engine (module Big_values) p)

(* Pruning effectiveness: the state memo must prune a substantial share
   on a spin-heavy system, or exploration would not terminate in bounds. *)
let test_pruning_observable () =
  match Props.check_mutex Registry.peterson_tournament (Mutex_intf.params 2)
  with
  | Explore.Ok stats ->
    check_bool "pruned > 0" true (stats.Explore.pruned_dedup > 0)
  | Explore.Violation { violation; _ } ->
    Alcotest.failf "unexpected: %a" Cfc_core.Spec.pp_violation violation

(* A search starts on a collected heap: what its caller dropped is
   freed before the search builds its first system, so its peak does not
   depend on the GC's cycle phase.  A weak pointer sees the difference
   without the test running the GC itself.  The search's result is the
   reference explorer's. *)
let test_search_starts_collected () =
  let p = Mutex_intf.params 2 in
  let reference = oracle_check_mutex Registry.peterson_tournament p in
  List.iter
    (fun (name, engine) ->
      let build = Cfc_core.Mutex_harness.system Registry.peterson_tournament p in
      let dropped = Weak.create 1 in
      Weak.set dropped 0 (Some (fst (build ())));
      let alive = ref [] in
      let system () =
        alive := Weak.check dropped 0 :: !alive;
        build ()
      in
      Alcotest.check result_t (name ^ " = oracle") reference
        (Explore.run ~engine ~inc:Cfc_core.Spec.Inc.mutual_exclusion ~system
           ~check:(fun trace ~nprocs ->
             Cfc_core.Spec.mutual_exclusion trace ~nprocs)
           ());
      check_bool (name ^ ": built a system") true (!alive <> []);
      check_bool (name ^ ": dropped memory collected first") false
        (List.mem true !alive))
    engines

(* ------------------------------------------------------------------ *)
(* Partial-order reduction: the reduced search is anchored exactly like
   the incremental engine was — the verdict must match the unreduced
   search on every registry system and every broken fixture, violation
   schedules must replay, and the static independence relation the
   reduction trusts is validated against dynamic commutation on live
   schedulers. *)

let verdict_of = function Explore.Ok _ -> "ok" | Explore.Violation _ -> "violation"

let test_por_equivalence_registry () =
  List.iter
    (fun (module A : Mutex_intf.ALG) ->
      let p = Mutex_intf.params 2 in
      if A.supports p then begin
        match Independence.mutex (module A) p with
        | None ->
          Alcotest.failf "%s: no independence model (analysis regressed?)"
            A.name
        | Some independence ->
          let off = Props.check_mutex (module A) p in
          let on = Props.check_mutex ~independence (module A) p in
          Alcotest.(check string)
            (A.name ^ " n=2 por verdict") (verdict_of off) (verdict_of on);
          let s_off = (match off with Explore.Ok s | Explore.Violation { stats = s; _ } -> s)
          and s_on = (match on with Explore.Ok s | Explore.Violation { stats = s; _ } -> s) in
          check_bool (A.name ^ " n=2 por explores no more states") true
            (s_on.Explore.states <= s_off.Explore.states);
          check_bool (A.name ^ " n=2 por off reports pruned_por=0") true
            (s_off.Explore.pruned_por = 0)
      end)
    Registry.all

let test_por_equivalence_n3 () =
  let config =
    { Explore.max_depth = 90; max_steps_per_proc = 25; max_states = 150_000 }
  in
  List.iter
    (fun alg ->
      let (module A : Mutex_intf.ALG) = alg in
      let p = Mutex_intf.params 3 in
      if A.supports p then begin
        match Independence.mutex alg p with
        | None -> Alcotest.failf "%s n=3: no independence model" A.name
        | Some independence ->
          let off = Props.check_mutex ~config alg p in
          let on = Props.check_mutex ~config ~independence alg p in
          Alcotest.(check string)
            (A.name ^ " n=3 por verdict") (verdict_of off) (verdict_of on)
      end)
    [ Registry.peterson_tournament; Registry.one_bit; Registry.mcs ]

(* The planted race must survive the reduction, and the reduced search's
   counterexample must replay to a real violation. *)
let test_por_finds_planted_race () =
  let p = Mutex_intf.params 2 in
  let independence =
    match Independence.mutex (module Broken_lock) p with
    | Some i -> i
    | None -> Alcotest.fail "broken-lock: no independence model"
  in
  match Props.check_mutex ~independence (module Broken_lock) p with
  | Explore.Ok _ -> Alcotest.fail "reduction hid the planted race"
  | Explore.Violation { schedule; _ } ->
    let out =
      Explore.replay
        ~system:(Cfc_core.Mutex_harness.system (module Broken_lock) p)
        ~schedule
    in
    check_bool "por counterexample replays to violation" true
      (Cfc_core.Spec.mutual_exclusion out.Runner.trace ~nprocs:2 <> None)

let test_por_finds_chunked_splitter_bug () =
  let p = { Mutex_intf.n = 3; l = 1 } in
  let independence =
    match Independence.detector (module Broken_chunked) p with
    | Some i -> i
    | None -> Alcotest.fail "broken-chunked: no independence model"
  in
  match Props.check_detector ~independence (module Broken_chunked) p with
  | Explore.Ok _ -> Alcotest.fail "reduction hid the chunked-splitter bug"
  | Explore.Violation { schedule; _ } ->
    let out =
      Explore.replay
        ~system:(Cfc_core.Detect_harness.system (module Broken_chunked) p)
        ~schedule
    in
    check_bool "por counterexample replays to violation" true
      (Cfc_core.Spec.at_most_one_winner out.Runner.trace ~nprocs:3 <> None)

(* [seen_hint] pre-sizes the memo table; apart from the reported capacity
   ([seen_cap], which is exactly what the hint overrides) it must be
   invisible in the result, reduced or not. *)
let test_seen_hint_invisible () =
  let p = Mutex_intf.params 2 in
  let alg = Registry.lamport_fast in
  let (module A : Mutex_intf.ALG) = alg in
  let scrub_cap = function
    | Explore.Ok s -> Explore.Ok { s with Explore.seen_cap = 0 }
    | Explore.Violation v ->
      Explore.Violation
        { v with stats = { v.stats with Explore.seen_cap = 0 } }
  in
  Alcotest.check result_t "seen_hint invisible (unreduced)"
    (scrub_cap (Props.check_mutex alg p))
    (scrub_cap (Props.check_mutex ~seen_hint:4096 alg p));
  let independence = Option.get (Independence.mutex alg p) in
  Alcotest.check result_t "seen_hint invisible (por)"
    (scrub_cap (Props.check_mutex ~independence alg p))
    (scrub_cap (Props.check_mutex ~independence ~seen_hint:4096 alg p))

(* ------------------------------------------------------------------ *)
(* Symmetry reduction: the canonicalisation is anchored exactly like the
   other reductions — a qcheck congruence property (permuting the pids
   of an execution permutes the state key, and both executions share one
   canonical form), registry-wide verdict-equivalence sweeps against the
   unreduced engine (alone, composed with POR, and composed with POR and
   the compact seen set), and regressions that the broken fixtures stay
   refuted under the full composition. *)

(* The registry algorithms whose derived symmetry group is non-trivial,
   paired with their checked system.  The derivation is expected to
   succeed on the structurally symmetric algorithms — pin a few by name
   so a silent analysis regression cannot empty this list. *)
let sym_subjects =
  List.filter_map
    (fun (module A : Mutex_intf.ALG) ->
      let p = Mutex_intf.params 2 in
      if not (A.supports p) then None
      else
        match Symmetry.mutex (module A) p with
        | Some s when Symmetry.group_order s > 1 ->
          Some (A.name, Cfc_core.Mutex_harness.system (module A) p, s)
        | Some _ | None -> None)
    Registry.all

let test_symmetry_groups_exist () =
  let names = List.map (fun (n, _, _) -> n) sym_subjects in
  List.iter
    (fun expected ->
      check_bool
        (Printf.sprintf "%s n=2 has a non-trivial symmetry group" expected)
        true
        (List.mem expected names))
    [ "peterson-2p-tournament"; "tas-lock"; "mcs-lock" ];
  (* Two must-NOT-derive pins (if either ever derives a group, the
     derivation got laxer and needs a fresh soundness argument):
     tree-lamport's scan loop reads the per-pid flag registers in fixed
     index order in every variant, so a pid renaming does not map traces
     to traces; kessels' turn bits are written context-dependently (one
     side copies the other's bit, the other negates it), so no static
     value correspondence exists. *)
  List.iter
    (fun (alg, why) ->
      let (module A : Mutex_intf.ALG) = alg in
      match Symmetry.mutex alg (Mutex_intf.params 2) with
      | None -> ()
      | Some s ->
        check_bool
          (Printf.sprintf "%s n=2 derives no group (%s)" A.name why)
          true
          (Symmetry.group_order s <= 1))
    [ (Registry.tree, "pid-ordered scan");
      (Registry.kessels_tournament, "context-dependent turn writes") ];
  (* beyond n=2: peterson's tournament at n=4 must get the order-8
     tree-automorphism group — this is the headline n=4 configuration —
     not all of S4 (cross-subtree swaps do not preserve the bracket) *)
  (match Symmetry.mutex Registry.peterson_tournament { Mutex_intf.n = 4; l = 2 }
   with
  | Some s ->
    Alcotest.(check int)
      "peterson-2p-tournament n=4 tree-automorphism group order" 8
      (Symmetry.group_order s)
  | None -> Alcotest.fail "peterson-2p-tournament n=4: no symmetry group")

(* Permuting the pids of a whole execution: schedule [pi . sigma] instead
   of [sigma].  The reached state's key must be exactly [remap_key pi]
   of the original key (whenever the permutation's partial value maps
   cover the values in play), and both keys must canonicalise to the
   same representative — this is the congruence the memoization rests
   on, checked against real executions. *)
let congruence_sample ~seed ~subject ~len =
  let _, system, s = subject in
  let n = Symmetry.nprocs s in
  let rng = Random.State.make [| seed |] in
  let schedule = List.init len (fun _ -> Random.State.int rng n) in
  let key sched =
    let out = Explore.replay ~system ~schedule:sched in
    Oracle.state_key_of_system out.Runner.memory out.Runner.scheduler
      out.Runner.trace
  in
  let key1 = key schedule in
  List.fold_left
    (fun acc pi ->
      match acc with
      | Error _ -> acc
      | Ok tested -> (
        match Symmetry.remap_key s pi key1 with
        | exception Symmetry.Inapplicable -> acc
        | mapped ->
          let key2 = key (List.map (fun p -> pi.(p)) schedule) in
          if not (State_key.equal mapped key2) then
            Error "remapped key <> permuted execution's key"
          else if
            not
              (State_key.equal
                 (fst (Symmetry.canon s key1))
                 (fst (Symmetry.canon s key2)))
          then Error "canonical forms differ across a pid permutation"
          else Ok (tested + 1)))
    (Ok 0) (Symmetry.perms s)

let prop_symmetry_congruence =
  QCheck.Test.make ~count:200
    ~name:"pid-permuted executions share one canonical key"
    QCheck.(triple (int_bound 100_000) (int_bound 1_000) (int_bound 40))
    (fun (seed, pick, len) ->
      sym_subjects = []
      ||
      let subject = List.nth sym_subjects (pick mod List.length sym_subjects) in
      match congruence_sample ~seed ~subject ~len with
      | Ok _ -> true
      | Error _ -> false)

(* The qcheck property is vacuous if every permutation hits a value
   outside its partial maps; this deterministic sweep pins a floor on how
   many (schedule, permutation) pairs are actually compared. *)
let test_symmetry_congruence_coverage () =
  let tested = ref 0 in
  List.iteri
    (fun i subject ->
      let name, _, _ = subject in
      for seed = 0 to 24 do
        List.iter
          (fun len ->
            match
              congruence_sample ~seed:((1000 * i) + seed) ~subject ~len
            with
            | Ok t -> tested := !tested + t
            | Error what -> Alcotest.failf "%s: %s" name what)
          [ 0; 5; 13; 29; 41 ]
      done)
    sym_subjects;
  check_bool
    (Printf.sprintf "enough permuted executions compared (%d)" !tested)
    true (!tested >= 25)

(* Verdict equivalence at n=2 over the whole registry: symmetry alone,
   symmetry x POR, and symmetry x POR x compact must all agree with the
   unreduced search; the compact run must report no collisions and be
   bit-identical to its exact twin. *)
let test_sym_equivalence_registry () =
  let total_sym = ref 0 in
  List.iter
    (fun (module A : Mutex_intf.ALG) ->
      let p = Mutex_intf.params 2 in
      if A.supports p then
        match Symmetry.mutex (module A) p with
        | None -> ()
        | Some symmetry ->
          let off = Props.check_mutex (module A) p in
          let s = Props.check_mutex ~symmetry (module A) p in
          Alcotest.(check string)
            (A.name ^ " n=2 sym verdict") (verdict_of off) (verdict_of s);
          let stats_of_r = function
            | Explore.Ok st | Explore.Violation { stats = st; _ } -> st
          in
          check_bool (A.name ^ " n=2 sym explores no more states") true
            ((stats_of_r s).Explore.states
            <= (stats_of_r off).Explore.states);
          total_sym := !total_sym + (stats_of_r s).Explore.pruned_sym;
          (match Independence.mutex (module A) p with
          | None -> ()
          | Some independence ->
            let sp = Props.check_mutex ~symmetry ~independence (module A) p in
            Alcotest.(check string)
              (A.name ^ " n=2 sym x por verdict")
              (verdict_of off) (verdict_of sp);
            let spc =
              Props.check_mutex ~symmetry ~independence ~compact:true
                (module A) p
            in
            Alcotest.check result_t (A.name ^ " n=2 compact = exact") sp spc;
            check_bool (A.name ^ " n=2 compact: no collisions") true
              ((stats_of_r spc).Explore.fp_collisions = 0);
            Alcotest.check result_t
              (A.name ^ " n=2 sym x por x compact: replay = incremental") spc
              (Props.check_mutex ~engine:Explore.Replay ~symmetry ~independence
                 ~compact:true (module A) p)))
    Registry.all;
  check_bool
    (Printf.sprintf "symmetry actually merged states somewhere (%d)"
       !total_sym)
    true (!total_sym > 0)

let test_sym_equivalence_n3 () =
  let config =
    { Explore.max_depth = 90; max_steps_per_proc = 25; max_states = 150_000 }
  in
  List.iter
    (fun (alg, p) ->
      let (module A : Mutex_intf.ALG) = alg in
      if A.supports p then
        match Symmetry.mutex alg p with
        | None -> Alcotest.failf "%s n=3: no symmetry group" A.name
        | Some symmetry ->
          let off = Props.check_mutex ~config alg p in
          let s = Props.check_mutex ~config ~symmetry alg p in
          Alcotest.(check string)
            (A.name ^ " n=3 sym verdict") (verdict_of off) (verdict_of s);
          (match Independence.mutex alg p with
          | None -> ()
          | Some independence ->
            let sp =
              Props.check_mutex ~config ~symmetry ~independence alg p
            in
            Alcotest.(check string)
              (A.name ^ " n=3 sym x por verdict")
              (verdict_of off) (verdict_of sp);
            let spc =
              Props.check_mutex ~config ~symmetry ~independence ~compact:true
                alg p
            in
            Alcotest.check result_t (A.name ^ " n=3 compact = exact") sp spc))
    [ (Registry.peterson_tournament, Mutex_intf.params 3);
      (Registry.tas_lock, Mutex_intf.params 3) ]

(* The broken fixtures must stay refuted under the full composition —
   a reduction that can only verify cannot be trusted to verify. *)
let test_sym_refutes_fixtures () =
  let p2 = Mutex_intf.params 2 in
  (match Symmetry.mutex (module Broken_lock) p2 with
  | None -> Alcotest.fail "broken-lock: no symmetry group"
  | Some symmetry -> (
    let independence = Option.get (Independence.mutex (module Broken_lock) p2) in
    match
      Props.check_mutex ~symmetry ~independence ~compact:true
        (module Broken_lock) p2
    with
    | Explore.Ok _ -> Alcotest.fail "sym x por x compact hid the planted race"
    | Explore.Violation { schedule; _ } ->
      let out =
        Explore.replay
          ~system:(Cfc_core.Mutex_harness.system (module Broken_lock) p2)
          ~schedule
      in
      check_bool "sym counterexample replays to violation" true
        (Cfc_core.Spec.mutual_exclusion out.Runner.trace ~nprocs:2 <> None)));
  let p31 = { Mutex_intf.n = 3; l = 1 } in
  (match Symmetry.detector (module Broken_chunked) p31 with
  | None -> Alcotest.fail "broken-chunked: no symmetry group"
  | Some symmetry -> (
    let independence =
      Option.get (Independence.detector (module Broken_chunked) p31)
    in
    match
      Props.check_detector ~symmetry ~independence (module Broken_chunked) p31
    with
    | Explore.Ok _ ->
      Alcotest.fail "sym x por hid the chunked-splitter bug at n=3"
    | Explore.Violation _ -> ()));
  match Symmetry.mutex (module Broken_recovery) p2 with
  | None -> Alcotest.fail "broken-recovery: no symmetry group"
  | Some symmetry -> (
    match
      Props.check_mutex_recoverable ~symmetry ~pairs:1
        (module Broken_recovery) p2
    with
    | Explore.Ok _ ->
      Alcotest.fail "symmetry hid the stale-hint recovery bug"
    | Explore.Violation { schedule; _ } ->
      check_bool "sym fault counterexample has a crash" true
        (List.exists
           (function Explore.Crash _ -> true | _ -> false)
           schedule))

(* --- static independence vs dynamic commutation ------------------- *)

(* Registry algorithms (n=2) whose access-graph analysis yields a usable
   independence model, with that model. *)
let commutation_subjects =
  List.filter_map
    (fun (module A : Mutex_intf.ALG) ->
      let p = Mutex_intf.params 2 in
      if not (A.supports p) then None
      else
        match Independence.mutex (module A) p with
        | Some ind -> Some ((module A : Mutex_intf.ALG), p, ind)
        | None -> None)
    Registry.all

(* Drive a fresh system down one seeded random schedule prefix while
   tracking every process's position in its access graph; if the reached
   state has two enabled processes whose next-step footprints are
   statically independent, execute the pair in both orders (from fresh
   systems, via [Explore.replay]) and compare the end-state
   fingerprints.  This is the claim the reduction rests on, checked
   against the real scheduler rather than the abstraction. *)
let commutation_sample ~seed ~subject ~prefix_len =
  let (module A : Mutex_intf.ALG), p, ind = subject in
  let system = Cfc_core.Mutex_harness.system (module A) p in
  let memory, procs = system () in
  let trace = Trace.create () in
  let sched = Scheduler.create ~memory ~trace procs in
  let tr = Independence.track ind ~nprocs:(Array.length procs) in
  let rng = Random.State.make [| seed |] in
  let feed from =
    for i = from to Trace.length trace - 1 do
      let e = Trace.get trace i in
      match e.Event.body with
      | Event.Access (r, k) ->
        Independence.observe tr ~pid:e.Event.pid ~reg:r.Register.id ~kind:k
      | _ -> ()
    done
  in
  let prefix = ref [] in
  let steps = ref prefix_len in
  while !steps > 0 do
    (match Scheduler.runnable sched with
    | [] -> steps := 1
    | pids -> (
      let pid = List.nth pids (Random.State.int rng (List.length pids)) in
      let from = Trace.length trace in
      match Scheduler.step sched pid with
      | Scheduler.Progress | Scheduler.Asleep _ | Scheduler.Finished ->
        prefix := pid :: !prefix;
        feed from
      | Scheduler.Not_runnable -> ()));
    decr steps
  done;
  let prefix = List.rev !prefix in
  match Scheduler.runnable sched with
  | a :: b :: _ -> (
    match (Independence.next_fp tr a, Independence.next_fp tr b) with
    | Some fa, Some fb when not (Independence.conflict fa fb) ->
      let key schedule =
        let out = Explore.replay ~system ~schedule in
        Oracle.state_key_of_system out.Runner.memory out.Runner.scheduler
          out.Runner.trace
      in
      `Tested
        (State_key.equal (key (prefix @ [ a; b ])) (key (prefix @ [ b; a ])))
    | _ -> `Conflicting)
  | _ -> `No_pair

let prop_independent_steps_commute =
  QCheck.Test.make ~count:200
    ~name:"statically independent enabled steps commute dynamically"
    QCheck.(triple (int_bound 100_000) (int_bound 1_000) (int_bound 40))
    (fun (seed, pick, prefix_len) ->
      let subject =
        List.nth commutation_subjects
          (pick mod List.length commutation_subjects)
      in
      match commutation_sample ~seed ~subject ~prefix_len with
      | `Tested commutes -> commutes
      | `Conflicting | `No_pair -> true)

(* The qcheck property above is vacuous if random prefixes never reach a
   statically-independent pair; this deterministic sweep pins a floor on
   how many pairs actually get exercised (and re-checks them). *)
let test_commutation_coverage () =
  let tested = ref 0 in
  List.iteri
    (fun i subject ->
      for seed = 0 to 9 do
        List.iter
          (fun prefix_len ->
            match
              commutation_sample ~seed:((1000 * i) + seed) ~subject
                ~prefix_len
            with
            | `Tested commutes ->
              incr tested;
              check_bool "independent pair commutes" true commutes
            | `Conflicting | `No_pair -> ())
          [ 3; 9; 17 ]
      done)
    commutation_subjects;
  check_bool
    (Printf.sprintf "enough independent pairs exercised (%d)" !tested)
    true (!tested >= 25)

(* The tracker's per-access work is allocation-free once warm: position
   sets and op classes are interned as ints and every transition is
   memoised, so replaying an access sequence the tracker has already met
   (the model checker revisits the same positions on every undo) costs
   no minor words in [observe], [next_fp] or [cycle_member]. *)
let test_tracker_no_alloc () =
  List.iteri
    (fun i ((module A : Mutex_intf.ALG), p, ind) ->
      let system = Cfc_core.Mutex_harness.system (module A) p in
      let memory, procs = system () in
      let trace = Trace.create () in
      let sched = Scheduler.create ~memory ~trace procs in
      let rng = Random.State.make [| i |] in
      let rec drive budget =
        match Scheduler.runnable sched with
        | [] -> ()
        | pids when budget > 0 ->
          ignore
            (Scheduler.step sched
               (List.nth pids (Random.State.int rng (List.length pids))));
          drive (budget - 1)
        | _ -> ()
      in
      drive 400;
      let accesses =
        Trace.fold
          (fun acc e ->
            match e.Event.body with
            | Event.Access (r, k) -> (e.Event.pid, r.Register.id, k) :: acc
            | _ -> acc)
          [] trace
        |> List.rev |> Array.of_list
      in
      let tr = Independence.track ind ~nprocs:(Array.length procs) in
      let start = Independence.snapshot tr in
      let cyc = ref 0 in
      let feed () =
        for j = 0 to Array.length accesses - 1 do
          let pid, reg, kind = accesses.(j) in
          Independence.observe tr ~pid ~reg ~kind;
          if Independence.cycle_member tr ~pid ~reg ~kind then incr cyc;
          match Independence.next_fp tr pid with
          | Some _ -> incr cyc
          | None -> ()
        done
      in
      feed ();
      Independence.restore tr start;
      let before = Gc.minor_words () in
      feed ();
      let words = Gc.minor_words () -. before in
      check_bool
        (Printf.sprintf "%s: %.0f minor words for %d accesses" A.name words
           (Array.length accesses))
        true (words = 0.))
    commutation_subjects

(* ------------------------------------------------------------------ *)
(* Static race enumeration vs dynamic conflicts: every cross-process
   conflicting access pair the exhaustive n=2 search actually executes
   must be matched by a race the static product enumeration reports on
   the same register with the same unordered class pair.  The static
   subject is [of_mutex_checked] — the solo that mirrors the checked
   system, witness register included, so register ids align with the
   checked arena. *)

type coverage = {
  cov_name : string;
  cov_pairs : int;
  cov_missing : Cfc_mcheck.Conflicts.pair list;
}

let conflict_coverage alg =
  let (module A : Mutex_intf.ALG) = alg in
  let subject =
    match Cfc_analysis.Subjects.of_mutex_checked ~n:2 alg with
    | Some s -> s
    | None -> Alcotest.failf "%s: no checked subject at n=2" A.name
  in
  let product =
    Cfc_analysis.Product.of_report (Cfc_analysis.Analyze.analyze subject)
  in
  let conflicts = Cfc_mcheck.Conflicts.create () in
  (match
     Props.check_mutex
       ~observe_access:(Cfc_mcheck.Conflicts.observer conflicts)
       alg (Mutex_intf.params 2)
   with
  | Explore.Ok _ -> ()
  | Explore.Violation { violation; _ } ->
    Alcotest.failf "%s refuted at n=2: %a" A.name
      Cfc_core.Spec.pp_violation violation);
  let pairs = Cfc_mcheck.Conflicts.pairs conflicts in
  let missing =
    List.filter
      (fun (p : Cfc_mcheck.Conflicts.pair) ->
        not
          (Cfc_analysis.Product.has_pair product ~reg:p.Cfc_mcheck.Conflicts.rid
             ~cls_a:p.cls_a ~cls_b:p.cls_b))
      pairs
  in
  { cov_name = A.name; cov_pairs = List.length pairs; cov_missing = missing }

let check_covered cov =
  List.iter
    (fun (p : Cfc_mcheck.Conflicts.pair) ->
      Alcotest.failf
        "%s: dynamic conflict on %s (pid %d %s / pid %d %s) has no static \
         race"
        cov.cov_name p.Cfc_mcheck.Conflicts.reg p.pid_a p.cls_a p.pid_b
        p.cls_b)
    cov.cov_missing

(* Memoized per algorithm: the qcheck property samples the registry, the
   deterministic sweep below guarantees every algorithm is hit and pins a
   floor on how many conflict pairs the property actually exercises. *)
let coverage_memo = Hashtbl.create 16

let coverage_of alg =
  let (module A : Mutex_intf.ALG) = alg in
  match Hashtbl.find_opt coverage_memo A.name with
  | Some c -> c
  | None ->
    let c = conflict_coverage alg in
    Hashtbl.add coverage_memo A.name c;
    c

let prop_static_covers_dynamic =
  QCheck.Test.make ~count:30
    ~name:"static race set covers observed dynamic conflicts (n=2)"
    QCheck.(int_bound 100_000)
    (fun pick ->
      let alg = List.nth Registry.all (pick mod List.length Registry.all) in
      (coverage_of alg).cov_missing = [])

let test_conflict_coverage_registry () =
  let total = ref 0 in
  List.iter
    (fun alg ->
      let cov = coverage_of alg in
      check_covered cov;
      total := !total + cov.cov_pairs)
    Registry.all;
  check_bool
    (Printf.sprintf "enough dynamic conflict pairs exercised (%d)" !total)
    true (!total >= 50)

(* fixture-swallows catches the exception of a failed write and keeps
   going.  The failed write leaves no event in the trace; the scheduler
   logs it, and a rebuild raises it again at the same call.  So the one
   search checks the fixture on the one system it builds, with the
   reference explorer's result under either rollback policy, and with
   and without the reductions and faults. *)
let test_swallows_one_engine () =
  let alg = Cfc_analysis.Fixtures.swallows and p = Mutex_intf.params 2 in
  let reference = oracle_check_mutex alg p in
  (match reference with
  | Explore.Ok s ->
    Alcotest.(check (list int)) "states, runs, pruned_dedup" [ 37; 2; 12 ]
      [ s.Explore.states; s.Explore.runs; s.Explore.pruned_dedup ]
  | Explore.Violation _ -> Alcotest.fail "oracle: unexpected violation");
  let builds = ref 0 in
  let system () =
    incr builds;
    Cfc_core.Mutex_harness.system alg p ()
  in
  Alcotest.check result_t "Explore.run = oracle" reference
    (Explore.run ~inc:Cfc_core.Spec.Inc.mutual_exclusion ~system
       ~check:(fun trace ~nprocs ->
         Cfc_core.Spec.mutual_exclusion trace ~nprocs)
       ());
  Alcotest.(check int) "one system build" 1 !builds;
  check_policies result_t "fixture-swallows" ~reference (fun engine ->
      Props.check_mutex ~engine alg p);
  (match Independence.mutex alg p with
  | None -> Alcotest.fail "no independence model for fixture-swallows"
  | Some independence ->
    expect_ok "fixture-swallows por" (Props.check_mutex ~independence alg p));
  check_policies fault_result_t "fixture-swallows pairs=1"
    ~reference:(oracle_check_recoverable ~pairs:1 alg p)
    (fun engine -> Props.check_mutex_recoverable ~engine ~pairs:1 alg p)

(* The deterministic cost proxy of the reduced search: minor words per
   explored state of a partial-order-reduced check at n=2, the
   independence hint derived beforehand, the fresh system and seen set
   included.  It was 684 (bakery) and 818 (lamport-fast) while every
   checkpoint was allocated afresh, the probe saved the monitor and
   keys were built through closures; per-depth buffers, one-step probe
   undo and closure-free keys give 281 and 333. *)
let test_reduced_alloc () =
  List.iter
    (fun alg ->
      let (module A : Mutex_intf.ALG) = alg in
      let p = Mutex_intf.params 2 in
      let independence = Independence.mutex alg p in
      check_bool (A.name ^ ": independence model") true (independence <> None);
      let before = Gc.minor_words () in
      let r = Props.check_mutex ?independence alg p in
      let words = Gc.minor_words () -. before in
      match r with
      | Explore.Ok s ->
        let per_state = words /. float_of_int s.Explore.states in
        check_bool
          (Printf.sprintf "%s: %.1f minor words per state (%d states), bound 365"
             A.name per_state s.Explore.states)
          true (per_state <= 365.)
      | Explore.Violation _ -> Alcotest.failf "%s: violation" A.name)
    [ Registry.bakery; Registry.lamport_fast ]

let () =
  Alcotest.run "cfc_mcheck"
    [ ( "finds-bugs",
        [ Alcotest.test_case "planted mutex race" `Quick
            test_finds_planted_race;
          Alcotest.test_case "counterexample replays" `Quick
            test_counterexample_replays;
          Alcotest.test_case "planted naming race" `Quick
            test_finds_naming_race;
          Alcotest.test_case "chunked-splitter unsoundness (regression)"
            `Quick test_finds_chunked_splitter_bug ] );
      ( "crash-recovery",
        [ Alcotest.test_case "recoverable-tas n=2, 2 pairs" `Slow
            test_recoverable_n2_crash_recovery;
          Alcotest.test_case "recoverable-tas n=2 crash-free" `Quick
            test_recoverable_n2_crash_free;
          Alcotest.test_case "recoverable-queue n=2 (exhaustive) and n=3"
            `Slow test_rec_queue_crash_recovery;
          Alcotest.test_case "broken recovery found (regression)" `Quick
            test_finds_broken_recovery;
          Alcotest.test_case "broken recovery queue found n∈{2,3}" `Quick
            test_finds_broken_recovery_queue ] );
      ( "verifies",
        [ Alcotest.test_case "all mutexes n=2" `Slow test_mutex_n2_exhaustive;
          Alcotest.test_case "tree n=3 l=2" `Slow test_tree_l2_n3;
          Alcotest.test_case "two rounds" `Slow test_mutex_two_rounds;
          Alcotest.test_case "detectors" `Quick test_detectors_exhaustive;
          Alcotest.test_case "naming n∈{2,4}" `Slow test_naming_exhaustive ] );
      ( "engine-equivalence",
        [ Alcotest.test_case "registry n=2 replay=incremental=oracle" `Slow
            test_engine_equivalence_registry;
          Alcotest.test_case "broken fixtures replay=incremental=oracle"
            `Quick
            test_engine_equivalence_broken;
          Alcotest.test_case "symmetric still refutes" `Quick
            test_symmetric_still_refutes;
          Alcotest.test_case "swallows fixture: one build, no fallback"
            `Quick test_swallows_one_engine ] );
      ( "symmetry",
        [ Alcotest.test_case "groups derived for the symmetric algorithms"
            `Quick test_symmetry_groups_exist;
          QCheck_alcotest.to_alcotest prop_symmetry_congruence;
          Alcotest.test_case "congruence coverage floor" `Slow
            test_symmetry_congruence_coverage;
          Alcotest.test_case "registry n=2 sym/por/compact = unreduced" `Slow
            test_sym_equivalence_registry;
          Alcotest.test_case "n=3 sym/por/compact = unreduced" `Slow
            test_sym_equivalence_n3;
          Alcotest.test_case "broken fixtures survive the composition" `Quick
            test_sym_refutes_fixtures ] );
      ( "state-key",
        [ Alcotest.test_case "access kinds never alias (regression)" `Quick
            test_state_key_kinds_distinct;
          Alcotest.test_case "register values >= 10_000" `Quick
            test_large_register_values;
          QCheck_alcotest.to_alcotest prop_typed_key_functions ] );
      ( "partial-order-reduction",
        [ Alcotest.test_case "registry n=2 por=unreduced" `Slow
            test_por_equivalence_registry;
          Alcotest.test_case "n=3 por=unreduced" `Slow
            test_por_equivalence_n3;
          Alcotest.test_case "planted race survives reduction" `Quick
            test_por_finds_planted_race;
          Alcotest.test_case "chunked-splitter bug survives reduction" `Quick
            test_por_finds_chunked_splitter_bug;
          Alcotest.test_case "seen_hint invisible" `Quick
            test_seen_hint_invisible;
          QCheck_alcotest.to_alcotest prop_independent_steps_commute;
          Alcotest.test_case "commutation coverage floor" `Slow
            test_commutation_coverage;
          Alcotest.test_case "warm tracker allocates nothing" `Quick
            test_tracker_no_alloc ] );
      ( "static-vs-dynamic-conflicts",
        [ QCheck_alcotest.to_alcotest prop_static_covers_dynamic;
          Alcotest.test_case "registry coverage floor" `Slow
            test_conflict_coverage_registry ] );
      ( "mechanics",
        [ Alcotest.test_case "pruning observable" `Quick
            test_pruning_observable;
          Alcotest.test_case "search starts on a collected heap" `Quick
            test_search_starts_collected;
          Alcotest.test_case "reduced search: at most 365 minor words per state"
            `Quick test_reduced_alloc ] ) ]
