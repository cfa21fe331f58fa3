(* The benchmark harness: regenerates every table of the paper's
   evaluation (see DESIGN.md §4 for the experiment index).

   Part 1 — counted complexity (deterministic, the paper's actual
   metrics): Table M ("Bounds for mutual exclusion"), Table N ("Tight
   bounds for naming"), the Theorem 1-3 sweeps, the §2.6 contention
   detection bound, the unbounded worst-case demonstration, and the §4
   backoff experiment.

   Part 2 — wall-clock shape checks on the native Atomic/Domain backend
   with Bechamel (one Test.make group per table): absolute numbers are
   machine-dependent, but the orderings (Lamport constant vs tree
   Θ(log n / l) vs bakery Θ(n); naming models) reproduce the paper's
   relationships. *)

open Cfc_base
open Cfc_mutex

let section title =
  Printf.printf "\n=== %s ===\n\n%!" title

(* ------------------------------------------------------------------ *)
(* Part 1: counted complexity                                          *)
(* ------------------------------------------------------------------ *)

let table_mutex () =
  section "EXP-M: Bounds for mutual exclusion (paper table, symbolic)";
  Texttab.print (Cfc_core.Report.mutex_table_symbolic ());
  List.iter
    (fun (n, l) ->
      section (Printf.sprintf "EXP-M: mutual exclusion at n=%d, l=%d" n l);
      Texttab.print (Cfc_core.Report.mutex_table ~n ~l))
    [ (16, 2); (256, 4); (1024, 2); (4096, 12) ]

let thm_sweeps () =
  section
    "EXP-T1/T2/T3: lower bounds vs tree-of-Lamport measured vs upper bounds";
  Texttab.print
    (Cfc_core.Report.thm_sweep
       ~ns:[ 4; 16; 64; 256; 1024; 4096; 16384 ]
       ~ls:[ 2; 3; 4; 8; 14 ]);
  print_string
    "note: tree nodes hold 2^l - 1 slots (an l-bit gate must encode\n\
     'free'), so the measured depth can exceed the paper's ceil(log n/l)\n\
     by one level for small l; see DESIGN.md and EXPERIMENTS.md.\n"

let flat_vs_tree () =
  section "EXP-T3 corollary: Lamport flat (l = log n) is the 7-step limit";
  let t =
    Texttab.create
      ~header:[ "n"; "lamport cf steps"; "lamport cf regs"; "atomicity" ]
  in
  List.iter
    (fun n ->
      let p = Mutex_intf.params n in
      let r =
        Cfc_core.Mutex_harness.contention_free Registry.lamport_fast p
      in
      Texttab.add_row t
        [ string_of_int n;
          string_of_int r.Cfc_core.Mutex_harness.max.Cfc_core.Measures.steps;
          string_of_int
            r.Cfc_core.Mutex_harness.max.Cfc_core.Measures.registers;
          string_of_int r.Cfc_core.Mutex_harness.atomicity_observed ])
    [ 2; 16; 256; 4096 ];
  Texttab.print t

let table_naming () =
  section "EXP-N: Tight bounds for naming (paper table, symbolic)";
  Texttab.print (Cfc_core.Report.naming_table_symbolic ());
  List.iter
    (fun n ->
      section
        (Printf.sprintf
           "EXP-N: naming at n=%d (theory / measured; c-f exact, w-c \
            adversarial estimate)"
           n);
      Texttab.print (Cfc_core.Report.naming_table ~n))
    [ 16; 64; 256 ];
  section "EXP-T4: per-algorithm naming sweep";
  Texttab.print (Cfc_core.Report.naming_sweep ~ns:[ 4; 16; 64; 256 ])

let detection () =
  section "EXP-CD: contention detection, worst-case steps vs ceil(log n/l)";
  Texttab.print
    (Cfc_core.Report.detection_table
       ~ns:[ 8; 64; 1024; 65536 ]
       ~ls:[ 1; 2; 4; 8 ])

let unbounded () =
  section "EXP-WC-INF: worst-case mutex entry grows without bound [AT92]";
  Texttab.print
    (Cfc_core.Report.unbounded_table ~spins:[ 10; 100; 1000; 10000 ])

let backoff () =
  section
    "EXP-BACKOFF: §4 — winner's entry cost since release stays near the \
     contention-free cost; backoff cuts total traffic";
  Texttab.print (Cfc_workload.Workload_report.backoff_table ())

let recoverable () =
  section
    "EXP-REC: recoverable lock — crash-free contention-free cost and \
     solo crash-point sweep (predicted / measured)";
  (* [recoverable_table] skips unsupported sizes per lock (the packed
     queue word caps the queue lock at n <= 15 for l = 1). *)
  Texttab.print (Cfc_core.Report.recoverable_table ~ns:[ 2; 4; 8; 16; 64 ]);
  List.iter
    (fun ((module A : Mutex_intf.ALG) as alg) ->
      section
        (Printf.sprintf
           "EXP-REC: seeded crash-recovery chaos (%s, n=4, 2 crash-recovery \
            pairs per run)"
           A.name);
      let t, worst =
        Cfc_core.Report.faults_table ~alg ~n:4 ~pairs:2 ~seeds:[ 1; 2; 3; 4; 5 ]
      in
      Texttab.print t;
      match worst with
      | None -> ()
      | Some out ->
        (* A run that did not reach quiescence: print the structured
           post-mortem instead of a bare "completed = false". *)
        Format.printf "%a@." Cfc_runtime.Runner.pp_diagnosis out)
    Registry.recoverable

let remote_access () =
  section
    "EXP-LOCAL (§1.2 / YA93): remote memory references per process under      a write-invalidate cache, 6 processes, 10 acquisitions each, long      critical sections";
  let n = 6 and rounds = 10 and cs_len = 25 in
  let t =
    Texttab.create
      ~header:[ "algorithm"; "max remote accesses"; "per acquisition" ]
  in
  List.iter
    (fun alg ->
      let (module A : Mutex_intf.ALG) = alg in
      let p = Mutex_intf.params n in
      if A.supports p then begin
        let remote =
          (Cfc_workload.Workload.run_mutex alg
             { n; rounds; mean_think = 0; cs_len; seed = 0 })
            .Cfc_workload.Workload.remote_max
        in
        Texttab.add_row t
          [ A.name; string_of_int remote;
            Printf.sprintf "%.1f" (float_of_int remote /. float_of_int rounds)
          ]
      end)
    Registry.all;
  Texttab.print t;
  print_string
    "note: the shared scratch inside the critical section costs ~1 remote\n\
     write per acquisition (the holder keeps its cached copy valid), so\n\
     the numbers are dominated by each lock's own coherence traffic;\n\
     mcs-lock spins locally.  The packed variant's word is a write\n\
     hotspot: fewer steps (EXP-MS93) but more invalidations here.\n"

let renaming () =
  section
    "EXP-RENAME: adaptive one-shot renaming (Moir-Anderson grid) —      contention-free O(1), name space k(k+1)/2";
  let n = 12 in
  let t =
    Texttab.create
      ~header:[ "participants k"; "max name (seeded runs)"; "k(k+1)/2 bound";
                "cf steps" ]
  in
  let cf =
    Cfc_core.Renaming_harness.contention_free Cfc_renaming.Registry.ma_grid
      ~n
  in
  List.iter
    (fun k ->
      let participants = List.init k (fun i -> i) in
      let max_name =
        List.fold_left
          (fun acc seed ->
            let out =
              Cfc_core.Renaming_harness.run ~participants
                ~pick:(Cfc_runtime.Schedule.random ~seed)
                Cfc_renaming.Registry.ma_grid ~n
            in
            List.fold_left
              (fun acc (_, v) -> max acc v)
              acc
              (Cfc_core.Measures.decisions out.Cfc_runtime.Runner.trace
                 ~nprocs:n))
          0 [ 1; 2; 3; 4; 5; 6; 7; 8 ]
      in
      Texttab.add_row t
        [ string_of_int k; string_of_int max_name;
          string_of_int (Cfc_renaming.Ma_grid.name_space ~n ~k);
          string_of_int cf.Cfc_core.Renaming_harness.max.Cfc_core.Measures.steps
        ])
    [ 1; 2; 4; 8; 12 ];
  Texttab.print t

(* ------------------------------------------------------------------ *)
(* Part 2: wall-clock (Bechamel, native backend)                       *)
(* ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

let run_bechamel test =
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] test in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  let t = Texttab.create ~header:[ "benchmark"; "ns/op" ] in
  List.iter
    (fun (name, ols) ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some (e :: _) -> Printf.sprintf "%.1f" e
        | Some [] | None -> "n/a"
      in
      Texttab.add_row t [ name; est ])
    (List.sort compare rows);
  Texttab.print t

(* One Test.make per Table-M row family: uncontended lock/unlock. *)
let bech_mutex () =
  section
    "EXP-NATIVE (Table M wall-clock): uncontended lock+unlock, 1 domain";
  let mk name alg p =
    let (module A : Mutex_intf.ALG) = alg in
    if A.supports p then begin
      let module M = (val Cfc_native.Native_mem.mem ()) in
      let module L = A.Make (M) in
      let inst = L.create p in
      Some
        (Test.make ~name
           (Staged.stage (fun () ->
                L.lock inst ~me:0;
                L.unlock inst ~me:0)))
    end
    else None
  in
  let tests =
    List.filter_map
      (fun (name, alg, p) -> mk name alg p)
      [ ("lamport-fast n=64", Registry.lamport_fast, Mutex_intf.params 64);
        ("tree l=2 n=64", Registry.tree, { Mutex_intf.n = 64; l = 2 });
        ("tree l=3 n=64", Registry.tree, { Mutex_intf.n = 64; l = 3 });
        ("peterson-tournament n=64", Registry.peterson_tournament,
         Mutex_intf.params 64);
        ("kessels-tournament n=64", Registry.kessels_tournament,
         Mutex_intf.params 64);
        ("bakery n=64", Registry.bakery, Mutex_intf.params 64);
        ("tas-lock n=64", Registry.tas_lock, Mutex_intf.params 64);
        ("recoverable-tas n=64", Registry.rec_tas, Mutex_intf.params 64);
        (* the packed queue word caps the queue lock below n=64 *)
        ("recoverable-queue n=8", Registry.rec_queue, Mutex_intf.params 8);
        ("lamport-fast n=1024", Registry.lamport_fast,
         Mutex_intf.params 1024);
        ("lamport-packed n=1024", Registry.ms_packed,
         Mutex_intf.params 1024);
        ("bakery n=1024", Registry.bakery, Mutex_intf.params 1024) ]
  in
  run_bechamel (Test.make_grouped ~name:"mutex-uncontended" tests)

(* One Test.make per Table-N column: one full naming round at n=64,
   single domain (the contention-free regime). *)
let bech_naming () =
  section "EXP-NATIVE (Table N wall-clock): one naming round, n=64";
  let n = 64 in
  let mk (col, algs) =
    match
      List.find_opt
        (fun (module A : Cfc_naming.Naming_intf.ALG) -> A.supports ~n)
        algs
    with
    | None -> None
    | Some (module A : Cfc_naming.Naming_intf.ALG) ->
      Some
        (Test.make ~name:(col ^ " (" ^ A.name ^ ")")
           (Staged.stage (fun () ->
                let module M = (val Cfc_native.Native_mem.mem ()) in
                let module N = A.Make (M) in
                let inst = N.create ~n in
                (* one process's contention-free run *)
                ignore (Sys.opaque_identity (N.run inst)))))
  in
  let tests = List.filter_map mk Cfc_naming.Registry.columns in
  (* Setup-only calibration: arena + instance allocation without running
     a process — subtract this from the rows above to compare models. *)
  let baseline =
    Test.make ~name:"baseline (setup only)"
      (Staged.stage (fun () ->
           let module M = (val Cfc_native.Native_mem.mem ()) in
           let module N = Cfc_naming.Taf_tree.Make (M) in
           ignore (Sys.opaque_identity (N.create ~n))))
  in
  run_bechamel (Test.make_grouped ~name:"naming-cf" (baseline :: tests))

(* Contended wall-clock: domains hammering the lock, with and without
   backoff (the §4 experiment in real time). *)
let native_contended () =
  section "EXP-NATIVE: contended lock/unlock wall-clock (2 domains)";
  let domains = 2 in
  let t =
    Texttab.create ~header:[ "algorithm"; "ns/cycle"; "exclusion ok" ]
  in
  List.iter
    (fun alg ->
      let (module A : Mutex_intf.ALG) = alg in
      let p = Mutex_intf.params (max domains 2) in
      if A.supports p then begin
        let ns, ok =
          Cfc_native.Native_harness.contended ~iters:20_000 ~domains alg p
        in
        Texttab.add_row t
          [ A.name; Printf.sprintf "%.1f" ns; string_of_bool ok ]
      end)
    Registry.all;
  Texttab.print t

let () =
  let wall_clock =
    (* --no-wall-clock skips the timing-dependent part (CI hygiene). *)
    not (Array.exists (( = ) "--no-wall-clock") Sys.argv)
  in
  table_mutex ();
  thm_sweeps ();
  flat_vs_tree ();
  table_naming ();
  detection ();
  unbounded ();
  backoff ();
  recoverable ();
  remote_access ();
  renaming ();
  if wall_clock then begin
    bech_mutex ();
    bech_naming ();
    native_contended ()
  end;
  print_newline ()
