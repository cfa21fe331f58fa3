(* Tests for the naming algorithms (§3): exact complexity counts
   (Theorem 4), safety (unique names in 1..n) under sequential, random,
   lockstep and crashy schedules, wait-freedom, the lower-bound
   realizations (Theorems 5–7), and model dualization. *)

open Cfc_base
open Cfc_naming
open Cfc_core

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let powers = [ 2; 4; 8; 16; 32; 64 ]

(* ------------------------------------------------------------------ *)
(* Contention-free exact counts (Theorem 4)                            *)
(* ------------------------------------------------------------------ *)

let test_cf_counts () =
  List.iter
    (fun (module A : Naming_intf.ALG) ->
      List.iter
        (fun n ->
          if A.supports ~n then begin
            let r = Naming_harness.contention_free (module A) ~n in
            let ctx = Printf.sprintf "%s n=%d" A.name n in
            (match A.predicted_cf_steps ~n with
            | Some s ->
              check_bool
                (Printf.sprintf "%s cf steps %d <= %d" ctx
                   r.Naming_harness.max.Measures.steps s)
                true
                (r.Naming_harness.max.Measures.steps <= s)
            | None -> ());
            match A.predicted_cf_registers ~n with
            | Some s ->
              check_bool
                (Printf.sprintf "%s cf regs %d <= %d" ctx
                   r.Naming_harness.max.Measures.registers s)
                true
                (r.Naming_harness.max.Measures.registers <= s)
            | None -> ()
          end)
        powers)
    Registry.all

(* The taf tree is exactly log n on both contention-free measures, for
   every process. *)
let test_taf_tree_exact () =
  List.iter
    (fun n ->
      let r = Naming_harness.contention_free Registry.taf_tree ~n in
      Array.iteri
        (fun pid s ->
          check
            (Printf.sprintf "taf n=%d p%d steps" n pid)
            (Ixmath.ceil_log2 n) s.Measures.steps;
          check
            (Printf.sprintf "taf n=%d p%d regs" n pid)
            (Ixmath.ceil_log2 n) s.Measures.registers)
        r.Naming_harness.per_process)
    powers

(* The tas scan costs process k exactly k steps sequentially (max n-1),
   and assigns names in arrival order. *)
let test_tas_scan_exact () =
  let n = 8 in
  let r = Naming_harness.contention_free Registry.tas_scan ~n in
  Array.iteri
    (fun pid s ->
      let expected_steps = min (pid + 1) (n - 1) in
      check (Printf.sprintf "scan p%d steps" pid) expected_steps
        s.Measures.steps;
      check (Printf.sprintf "scan p%d name" pid) (pid + 1)
        r.Naming_harness.names.(pid))
    r.Naming_harness.per_process

(* The read+tas search: exactly log n registers; steps log n or
   log n + 1 (even-indexed claims pay the extra test-and-set); name n
   costs exactly log n. *)
let test_tas_read_search_exact () =
  List.iter
    (fun n ->
      let logn = Ixmath.ceil_log2 n in
      let r = Naming_harness.contention_free Registry.tas_read_search ~n in
      Array.iteri
        (fun pid s ->
          let name = r.Naming_harness.names.(pid) in
          let expect_steps =
            if name = n || name mod 2 = 1 then logn else logn + 1
          in
          check
            (Printf.sprintf "search n=%d p%d (name %d) steps" n pid name)
            expect_steps s.Measures.steps;
          check
            (Printf.sprintf "search n=%d p%d regs" n pid)
            logn s.Measures.registers)
        r.Naming_harness.per_process;
      check "max steps is logn+1" (logn + 1)
        r.Naming_harness.max.Measures.steps)
    [ 4; 8; 16; 32 ]

(* Names are a permutation of 1..n in every contention-free run. *)
let test_names_are_permutation () =
  List.iter
    (fun (module A : Naming_intf.ALG) ->
      List.iter
        (fun n ->
          if A.supports ~n then begin
            let r = Naming_harness.contention_free (module A) ~n in
            let sorted =
              List.sort compare (Array.to_list r.Naming_harness.names)
            in
            Alcotest.(check (list int))
              (Printf.sprintf "%s n=%d permutation" A.name n)
              (List.init n (fun i -> i + 1))
              sorted
          end)
        powers)
    Registry.all

(* ------------------------------------------------------------------ *)
(* Safety under adversarial schedules                                  *)
(* ------------------------------------------------------------------ *)

let prop_unique_names_random =
  QCheck.Test.make ~count:120
    ~name:"naming: unique names under random schedules (all algorithms)"
    QCheck.(pair (int_bound 1_000_000) (int_range 1 5))
    (fun (seed, log_n) ->
      let n = Ixmath.pow2 log_n in
      List.for_all
        (fun (module A : Naming_intf.ALG) ->
          if not (A.supports ~n) then true
          else begin
            let out =
              Naming_harness.run
                ~pick:(Cfc_runtime.Schedule.random ~seed)
                (module A) ~n
            in
            (out.Cfc_runtime.Runner.stopped = Cfc_runtime.Runner.Quiescent)
            && Spec.unique_names out.Cfc_runtime.Runner.trace ~nprocs:n ~n
               = None
            && Spec.all_named out.Cfc_runtime.Runner.trace ~nprocs:n = None
          end)
        Registry.all)

(* Wait-freedom: unique names for survivors no matter which processes
   crash when. *)
let prop_unique_names_crashes =
  QCheck.Test.make ~count:120
    ~name:"naming: wait-free with crash injection"
    QCheck.(
      triple (int_bound 1_000_000) (int_range 2 5)
        (small_list (pair (int_bound 60) (int_bound 31))))
    (fun (seed, log_n, crashes) ->
      let n = Ixmath.pow2 log_n in
      (* Fault plans are validated now: at most one (un-recovered) crash
         per pid, no duplicate points — keep each pid's first. *)
      let crash_at =
        let seen = Hashtbl.create 8 in
        List.filter_map
          (fun (at, p) ->
            let p = p mod n in
            if Hashtbl.mem seen p then None
            else begin
              Hashtbl.add seen p ();
              Some (at, p)
            end)
          crashes
      in
      List.for_all
        (fun (module A : Naming_intf.ALG) ->
          if not (A.supports ~n) then true
          else begin
            let out =
              Naming_harness.run ~crash_at
                ~pick:(Cfc_runtime.Schedule.random ~seed)
                (module A) ~n
            in
            (out.Cfc_runtime.Runner.stopped = Cfc_runtime.Runner.Quiescent)
            && Spec.unique_names out.Cfc_runtime.Runner.trace ~nprocs:n ~n
               = None
            && Spec.all_named out.Cfc_runtime.Runner.trace ~nprocs:n = None
          end)
        Registry.all)

(* ------------------------------------------------------------------ *)
(* Lower bounds realized (Theorems 5, 6, 7)                            *)
(* ------------------------------------------------------------------ *)

(* Theorem 5: contention-free register complexity >= log n, every model,
   every algorithm. *)
let test_thm5_cf_registers () =
  List.iter
    (fun (module A : Naming_intf.ALG) ->
      List.iter
        (fun n ->
          if A.supports ~n then begin
            let r = Naming_harness.contention_free (module A) ~n in
            let bound = Bounds.naming_lower_cf_registers ~n in
            check_bool
              (Printf.sprintf "%s n=%d cf regs %d >= log n" A.name n
                 r.Naming_harness.max.Measures.registers)
              true
              (float_of_int r.Naming_harness.max.Measures.registers
              >= bound -. 1e-9)
          end)
        powers)
    Registry.all

(* Theorem 6: without test-and-flip, the lockstep adversary forces n-1
   steps on some process; with test-and-flip it cannot. *)
let test_thm6_lockstep () =
  let n = 16 in
  List.iter
    (fun (alg, expect_linear) ->
      let (module A : Naming_intf.ALG) = alg in
      let steps = Naming_harness.lockstep_steps alg ~n in
      if expect_linear then
        check_bool
          (Printf.sprintf "%s lockstep steps %d >= n-1" A.name steps)
          true
          (steps >= Bounds.naming_wc_steps_no_taf ~n)
      else
        check_bool
          (Printf.sprintf "%s lockstep steps %d stays logarithmic" A.name
             steps)
          true
          (steps <= 2 * Ixmath.ceil_log2 n))
    [ (Registry.tas_scan, true); (Registry.tar_scan, true);
      (Registry.taf_tree, false); (Registry.rmw_tree, false) ]

(* Theorem 7: with test-and-set only, contention-free register
   complexity is exactly n-1 (the scan meets the bound). *)
let test_thm7_tas_only () =
  List.iter
    (fun n ->
      let r = Naming_harness.contention_free Registry.tas_scan ~n in
      check
        (Printf.sprintf "tas-only n=%d cf regs" n)
        (Bounds.naming_tas_only_cf_registers ~n)
        r.Naming_harness.max.Measures.registers)
    powers

(* The tas/tar tree keeps worst-case REGISTER complexity at log n even
   under adversarial schedules (the column-3 separation from column 2). *)
let test_tas_tar_tree_wc_registers () =
  List.iter
    (fun n ->
      let s =
        Naming_harness.wc_estimate ~seeds:[ 1; 2; 3; 4 ]
          Registry.tas_tar_tree ~n
      in
      check
        (Printf.sprintf "tas-tar n=%d wc regs" n)
        (Ixmath.ceil_log2 n) s.Measures.registers)
    powers

(* In contrast, the scan's worst-case register complexity grows
   linearly. *)
let test_scan_wc_registers_linear () =
  let n = 16 in
  let s = Naming_harness.wc_estimate ~seeds:[ 1; 2 ] Registry.tas_scan ~n in
  check "scan wc regs" (n - 1) s.Measures.registers

(* ------------------------------------------------------------------ *)
(* Dualization                                                         *)
(* ------------------------------------------------------------------ *)

let test_dual_model () =
  let (module D : Naming_intf.ALG) = Registry.tar_scan in
  check_bool "dual model is test-and-reset only" true
    (Model.equal D.model (Model.of_list [ Ops.Test_and_reset ]));
  check_bool "dual of dual is original" true
    (Model.equal
       (Model.dual (Model.dual Model.tas_only))
       Model.tas_only)

(* The dualized scan behaves exactly like the original on every measure
   and assignment. *)
let test_dual_equivalent () =
  List.iter
    (fun n ->
      let a = Naming_harness.contention_free Registry.tas_scan ~n in
      let b = Naming_harness.contention_free Registry.tar_scan ~n in
      Alcotest.(check (array int))
        (Printf.sprintf "names agree n=%d" n)
        a.Naming_harness.names b.Naming_harness.names;
      check "steps agree" a.Naming_harness.max.Measures.steps
        b.Naming_harness.max.Measures.steps;
      check "registers agree" a.Naming_harness.max.Measures.registers
        b.Naming_harness.max.Measures.registers)
    powers

(* The read/write model cannot solve naming deterministically: just
   check the registry offers no algorithm for it (a meta-test documenting
   the §3.1 impossibility). *)
let test_no_read_write_algorithm () =
  check_bool "no algorithm in the read/write model" true
    (List.for_all
       (fun (module A : Naming_intf.ALG) ->
         not (Model.subset A.model Model.read_write))
       Registry.all)

(* ------------------------------------------------------------------ *)
(* The model atlas (§3.3's exercise)                                   *)
(* ------------------------------------------------------------------ *)

(* The atlas agrees with the paper's five published columns. *)
let test_atlas_matches_paper () =
  List.iter
    (fun (m, cfr, cfs, wcr, wcs) ->
      match Model_atlas.classify m with
      | Model_atlas.Unsolvable ->
        Alcotest.failf "%s classified unsolvable" (Model.to_string m)
      | Model_atlas.Bounds b ->
        let cell = function
          | Model_atlas.Linear -> "n-1"
          | Model_atlas.Logarithmic -> "log n"
        in
        List.iter2
          (fun (what, got) expect ->
            Alcotest.(check string)
              (Printf.sprintf "%s %s" (Model.to_string m) what)
              expect (cell got))
          [ ("cf reg", b.cf_register);
            ("cf step", b.cf_step);
            ("wc reg", b.wc_register);
            ("wc step", b.wc_step) ]
          [ cfr; cfs; wcr; wcs ])
    [ (Model.tas_only, "n-1", "n-1", "n-1", "n-1");
      (Model.tas_read, "log n", "log n", "n-1", "n-1");
      (Model.tas_tar_read, "log n", "log n", "log n", "n-1");
      (Model.taf, "log n", "log n", "log n", "log n");
      (Model.rmw, "log n", "log n", "log n", "log n") ]

(* Exactly the 32 breaker-free models are unsolvable, and classification
   is invariant under duality. *)
let test_atlas_structure () =
  let atlas = Model_atlas.all () in
  check "256 models" 256 (List.length atlas);
  check "solvable count" 224 (Model_atlas.solvable_count ());
  let cells = function
    | Model_atlas.Unsolvable -> None
    | Model_atlas.Bounds b ->
      (* the witness construction may differ between duals *)
      Some (b.cf_register, b.cf_step, b.wc_register, b.wc_step)
  in
  List.iter
    (fun (m, c) ->
      check_bool
        (Model.to_string m ^ " dual-invariant")
        true
        (cells (Model_atlas.classify (Model.dual m)) = cells c))
    atlas

(* Adding operations never hurts: every measure stays or improves. *)
let test_atlas_monotone () =
  let better a b =
    (* b at least as good as a *)
    match (a, b) with
    | Model_atlas.Linear, _ -> true
    | Model_atlas.Logarithmic, Model_atlas.Logarithmic -> true
    | Model_atlas.Logarithmic, Model_atlas.Linear -> false
  in
  List.iter
    (fun (m, c) ->
      List.iter
        (fun op ->
          let m' = Model.add op m in
          match (c, Model_atlas.classify m') with
          | _, Model_atlas.Unsolvable when c <> Model_atlas.Unsolvable ->
            Alcotest.fail "adding an op lost solvability"
          | Model_atlas.Bounds a, Model_atlas.Bounds b ->
            check_bool
              (Printf.sprintf "%s + %s monotone" (Model.to_string m)
                 (Ops.to_string op))
              true
              (better a.cf_register b.cf_register
              && better a.cf_step b.cf_step
              && better a.wc_register b.wc_register
              && better a.wc_step b.wc_step)
          | _, _ -> ())
        Ops.all)
    (Model_atlas.all ())

(* The atlas's logarithmic contention-free cells are realized by actual
   measured algorithms (through dualization where needed). *)
let test_atlas_witnessed () =
  let n = 16 in
  let logn = Ixmath.ceil_log2 n in
  let measure alg =
    (Naming_harness.contention_free alg ~n).Naming_harness.max
  in
  (* {tar}: dual scan measures n-1 (Linear cell). *)
  let tar = measure Registry.tar_scan in
  check "tar cf steps" (n - 1) tar.Measures.steps;
  (* {tas, tar}: alternation tree measures within [log n, 2 log n]. *)
  let tt = measure Registry.tas_tar_tree in
  check_bool "tas+tar cf steps logarithmic" true
    (tt.Measures.steps >= logn && tt.Measures.steps <= 2 * logn);
  (* {read, tar}: dual of the search measures log n registers. *)
  let module Dual_search = Dualize.Make (Tas_read_search) in
  let r = measure (module Dual_search) in
  check "read+tar cf regs" logn r.Measures.registers;
  check_bool "read+tar cf steps logarithmic" true
    (r.Measures.steps <= logn + 1)

let () =
  Alcotest.run "cfc_naming"
    [ ( "contention-free",
        [ Alcotest.test_case "cf counts within predictions" `Quick
            test_cf_counts;
          Alcotest.test_case "taf tree exact" `Quick test_taf_tree_exact;
          Alcotest.test_case "tas scan exact" `Quick test_tas_scan_exact;
          Alcotest.test_case "tas+read search exact" `Quick
            test_tas_read_search_exact;
          Alcotest.test_case "names are permutations" `Quick
            test_names_are_permutation ] );
      ( "safety",
        [ QCheck_alcotest.to_alcotest prop_unique_names_random;
          QCheck_alcotest.to_alcotest prop_unique_names_crashes ] );
      ( "lower-bounds",
        [ Alcotest.test_case "thm5 cf registers >= log n" `Quick
            test_thm5_cf_registers;
          Alcotest.test_case "thm6 lockstep adversary" `Quick
            test_thm6_lockstep;
          Alcotest.test_case "thm7 tas-only n-1" `Quick test_thm7_tas_only;
          Alcotest.test_case "tas/tar tree wc registers log n" `Quick
            test_tas_tar_tree_wc_registers;
          Alcotest.test_case "scan wc registers linear" `Quick
            test_scan_wc_registers_linear ] );
      ( "atlas",
        [ Alcotest.test_case "matches the paper's columns" `Quick
            test_atlas_matches_paper;
          Alcotest.test_case "structure (256, duals)" `Quick
            test_atlas_structure;
          Alcotest.test_case "monotone in operations" `Quick
            test_atlas_monotone;
          Alcotest.test_case "witnessed by measurement" `Quick
            test_atlas_witnessed ] );
      ( "duality",
        [ Alcotest.test_case "dual model algebra" `Quick test_dual_model;
          Alcotest.test_case "dual equivalent" `Quick test_dual_equivalent;
          Alcotest.test_case "read/write unsolvable (meta)" `Quick
            test_no_read_write_algorithm ] ) ]
