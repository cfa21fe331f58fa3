(* Tests for the consensus subsystem: the §1.2 definitional example.
   Exact contention-free counts, agreement/validity under every
   interleaving (model checker) and random schedules with crashes
   (wait-freedom), and executable demonstrations of the classical
   limits: plain read/write registers cannot solve consensus, and one
   single-bit RMW object stops at consensus number 2. *)

open Cfc_consensus
open Cfc_core
open Cfc_mcheck

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let all_inputs n =
  (* every 0/1 input vector for n processes *)
  List.init (1 lsl n) (fun mask ->
      Array.init n (fun i -> (mask lsr i) land 1))

let test_cf_exact () =
  (* The broken constructions are contention-free-sound (their defect
     only shows under contention), so their closed forms are asserted
     like everyone else's, at their natural n. *)
  let subjects =
    List.map (fun a -> (a, 2)) Registry.all
    @ [ (Registry.broken_rw, 2); (Registry.broken_three, 3) ]
  in
  List.iter
    (fun ((module A : Consensus_intf.ALG), n) ->
      List.iter
        (fun inputs ->
          let r = Consensus_harness.contention_free (module A) ~n ~inputs in
          (match A.predicted_cf_steps with
          | Some s ->
            check
              (Printf.sprintf "%s cf steps" A.name)
              s r.Consensus_harness.max.Measures.steps
          | None -> Alcotest.failf "%s: missing predicted_cf_steps" A.name);
          match A.predicted_cf_registers with
          | Some s ->
            check
              (Printf.sprintf "%s cf regs" A.name)
              s r.Consensus_harness.max.Measures.registers
          | None -> Alcotest.failf "%s: missing predicted_cf_registers" A.name)
        (all_inputs n))
    subjects

let test_exhaustive_agreement () =
  List.iter
    (fun (module A : Consensus_intf.ALG) ->
      List.iter
        (fun inputs ->
          match Props.check_consensus (module A) ~n:2 ~inputs with
          | Explore.Ok stats ->
            check_bool
              (Printf.sprintf "%s inputs %d%d explored" A.name inputs.(0)
                 inputs.(1))
              true (stats.Explore.runs > 0)
          | Explore.Violation { violation; _ } ->
            Alcotest.failf "%s: %a" A.name Spec.pp_violation violation)
        (all_inputs 2))
    Registry.all

let prop_agreement_random_with_crashes =
  QCheck.Test.make ~count:200
    ~name:"consensus: agreement+validity under random schedules and crashes"
    QCheck.(
      triple (int_bound 1_000_000) (int_bound 3)
        (option (pair (int_bound 6) (int_bound 1))))
    (fun (seed, input_mask, crash) ->
      List.for_all
        (fun (module A : Consensus_intf.ALG) ->
          let inputs = Array.init 2 (fun i -> (input_mask lsr i) land 1) in
          let crash_at =
            match crash with Some (at, pid) -> [ (at, pid) ] | None -> []
          in
          let out =
            Consensus_harness.run ~crash_at
              ~pick:(Cfc_runtime.Schedule.random ~seed)
              (module A) ~n:2 ~inputs
          in
          out.Adversary.outcome.Cfc_runtime.Runner.stopped
          = Cfc_runtime.Runner.Quiescent
          && Consensus_harness.check out ~n:2 ~inputs = None)
        Registry.all)

(* Plain read/write registers cannot solve consensus: the checker finds a
   disagreeing interleaving of the natural attempt. *)
let test_rw_consensus_impossible () =
  let found_disagreement =
    List.exists
      (fun inputs ->
        match Props.check_consensus Registry.broken_rw ~n:2 ~inputs with
        | Explore.Ok _ -> false
        | Explore.Violation _ -> true)
      (all_inputs 2)
  in
  check_bool "read/write consensus refuted" true found_disagreement

(* Consensus number 2: the naive 3-process extension of the TAS race
   disagrees under some interleaving. *)
let test_three_process_impossible () =
  let found =
    List.exists
      (fun inputs ->
        match Props.check_consensus Registry.broken_three ~n:3 ~inputs with
        | Explore.Ok _ -> false
        | Explore.Violation _ -> true)
      (all_inputs 3)
  in
  check_bool "3-process tas consensus refuted" true found

(* But the 2-process algorithms really are wait-free: a crashed partner
   never blocks a decision (straight-line code; checked above via
   completed runs, and here via solo-after-crash). *)
let test_decide_after_partner_crash () =
  List.iter
    (fun (module A : Consensus_intf.ALG) ->
      let inputs = [| 1; 0 |] in
      (* crash p0 before it takes any step; p1 must still decide (its own
         value, by validity among survivors... p0 never wrote, so p1
         decides p1's input). *)
      let out =
        Consensus_harness.run
          ~crash_at:[ (0, 0) ]
          ~pick:(Cfc_runtime.Schedule.round_robin ())
          (module A) ~n:2 ~inputs
      in
      let out = out.Adversary.outcome in
      check_bool (A.name ^ " completed") true
        (out.Cfc_runtime.Runner.stopped = Cfc_runtime.Runner.Quiescent);
      match
        List.assoc_opt 1
          (Measures.decisions out.Cfc_runtime.Runner.trace ~nprocs:2)
      with
      | Some v -> check (A.name ^ " survivor decides") 0 v
      | None -> Alcotest.fail (A.name ^ ": survivor undecided"))
    Registry.all

let () =
  Alcotest.run "cfc_consensus"
    [ ( "consensus",
        [ Alcotest.test_case "cf exact counts" `Quick test_cf_exact;
          Alcotest.test_case "exhaustive agreement (mcheck)" `Quick
            test_exhaustive_agreement;
          QCheck_alcotest.to_alcotest prop_agreement_random_with_crashes;
          Alcotest.test_case "read/write impossible (demo)" `Quick
            test_rw_consensus_impossible;
          Alcotest.test_case "consensus number 2 (demo)" `Quick
            test_three_process_impossible;
          Alcotest.test_case "decide after partner crash" `Quick
            test_decide_after_partner_crash ] ) ]
