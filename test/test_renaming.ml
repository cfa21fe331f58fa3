(* Tests for one-shot renaming (Moir-Anderson splitter grid): the
   contention-sensitive companion problem from the paper's introduction.
   Exact O(1) contention-free cost, adaptive k(k+1)/2 name bound,
   uniqueness under random schedules / crashes / partial participation,
   and exhaustive verification at small n. *)

open Cfc_renaming
open Cfc_core
open Cfc_mcheck

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Solo: one splitter win — 4 steps, 2 registers, name 1, any id. *)
let test_cf_exact () =
  List.iter
    (fun n ->
      let r = Renaming_harness.contention_free Registry.ma_grid ~n in
      Array.iteri
        (fun me s ->
          check (Printf.sprintf "n=%d p%d steps" n me) 4 s.Measures.steps;
          check
            (Printf.sprintf "n=%d p%d regs" n me)
            2 s.Measures.registers;
          check (Printf.sprintf "n=%d p%d name" n me) 1
            r.Renaming_harness.names.(me))
        r.Renaming_harness.per_process)
    [ 1; 2; 5; 16 ]

(* The name space adapts to the number of participants, not n. *)
let test_adaptive_bound () =
  let n = 12 in
  List.iter
    (fun k ->
      let participants = List.init k (fun i -> i * (n / k)) in
      List.iter
        (fun seed ->
          let out =
            Renaming_harness.run ~participants
              ~pick:(Cfc_runtime.Schedule.random ~seed)
              Registry.ma_grid ~n
          in
          let names =
            Measures.decisions out.Cfc_runtime.Runner.trace ~nprocs:n
          in
          check
            (Printf.sprintf "k=%d seed=%d all named" k seed)
            k (List.length names);
          match
            Spec.unique_names out.Cfc_runtime.Runner.trace ~nprocs:n
              ~n:(Ma_grid.name_space ~n ~k)
          with
          | None -> ()
          | Some v ->
            Alcotest.failf "k=%d seed=%d: %a" k seed Spec.pp_violation v)
        [ 1; 2; 3; 4; 5 ])
    [ 1; 2; 3; 4; 6 ]

let prop_unique_random =
  QCheck.Test.make ~count:150
    ~name:"renaming: unique in-range names under random schedules"
    QCheck.(pair (int_bound 1_000_000) (int_range 1 8))
    (fun (seed, n) ->
      let out =
        Renaming_harness.run
          ~pick:(Cfc_runtime.Schedule.random ~seed)
          Registry.ma_grid ~n
      in
      out.Cfc_runtime.Runner.completed
      && Spec.unique_names out.Cfc_runtime.Runner.trace ~nprocs:n
           ~n:(Ma_grid.name_space ~n ~k:n)
         = None)

(* Wait-freedom: crashed processes never block survivors, and survivors'
   names stay within the bound for the number of STARTERS (crashed
   starters still count as participants). *)
let prop_unique_with_crashes =
  QCheck.Test.make ~count:150
    ~name:"renaming: wait-free under crashes"
    QCheck.(
      triple (int_bound 1_000_000) (int_range 2 8)
        (small_list (pair (int_bound 40) (int_bound 7))))
    (fun (seed, n, crashes) ->
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
      let out =
        Renaming_harness.run ~crash_at
          ~pick:(Cfc_runtime.Schedule.random ~seed)
          Registry.ma_grid ~n
      in
      out.Cfc_runtime.Runner.completed
      && Spec.unique_names out.Cfc_runtime.Runner.trace ~nprocs:n
           ~n:(Ma_grid.name_space ~n ~k:n)
         = None)

let test_exhaustive () =
  List.iter
    (fun n ->
      match Props.check_renaming Registry.ma_grid ~n with
      | Explore.Ok stats ->
        check_bool
          (Printf.sprintf "n=%d explored" n)
          true (stats.Explore.runs > 0)
      | Explore.Violation { violation; _ } ->
        Alcotest.failf "n=%d: %a" n Spec.pp_violation violation)
    [ 2; 3 ]

(* Cell enumeration is a bijection onto 1..n(n+1)/2. *)
let test_cell_index () =
  let n = 6 in
  let seen = Hashtbl.create 32 in
  for r = 0 to n - 1 do
    for c = 0 to n - 1 - r do
      if r + c <= n - 1 then begin
        let i = Ma_grid.cell_index ~r ~c in
        check_bool
          (Printf.sprintf "(%d,%d) -> %d fresh" r c i)
          true
          (not (Hashtbl.mem seen i));
        Hashtbl.replace seen i ();
        check_bool "in range" true (i >= 1 && i <= n * (n + 1) / 2)
      end
    done
  done;
  check "covers the triangle" (n * (n + 1) / 2) (Hashtbl.length seen)

(* Sequential participants walk right along row 0 (every gate they meet
   is already set), so the i-th arrival deterministically gets the cell
   (0, i): name i(i+1)/2 + 1.  Also pins down that the k(k+1)/2 bound
   counts total participants, not concurrent ones. *)
let test_sequential_names () =
  let n = 10 in
  let out =
    Renaming_harness.run
      ~pick:(Cfc_runtime.Schedule.sequential ())
      Registry.ma_grid ~n
  in
  let names = Measures.decisions out.Cfc_runtime.Runner.trace ~nprocs:n in
  List.iteri
    (fun i (pid, v) ->
      check (Printf.sprintf "arrival %d (p%d)" i pid)
        ((i * (i + 1) / 2) + 1)
        v)
    (List.sort compare names)

let () =
  Alcotest.run "cfc_renaming"
    [ ( "ma-grid",
        [ Alcotest.test_case "cf exact (one splitter)" `Quick test_cf_exact;
          Alcotest.test_case "adaptive k(k+1)/2 bound" `Quick
            test_adaptive_bound;
          QCheck_alcotest.to_alcotest prop_unique_random;
          QCheck_alcotest.to_alcotest prop_unique_with_crashes;
          Alcotest.test_case "exhaustive n in {2,3}" `Quick test_exhaustive;
          Alcotest.test_case "cell enumeration" `Quick test_cell_index;
          Alcotest.test_case "sequential arrivals" `Quick
            test_sequential_names ] ) ]
