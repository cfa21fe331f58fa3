(* Tests for the symbolic access-graph analyzer (lib/analysis): the
   three-way agreement static = closed form = trace-measured over every
   registered algorithm of every family, the spin-structure
   classification, the lint gate (clean on the real registry, failing
   on the broken fixtures), and the determinism source scan. *)

open Cfc_analysis

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* One full lint pass (fixtures included) shared by every test below —
   the whole battery takes well under a second, but there is no reason
   to repeat it per test. *)
let outcome = lazy (Lint.run ~fixtures:true ())

let is_fixture (row : Lint.row) =
  let name = row.Lint.report.Analyze.subject.Subjects.alg_name in
  String.length name >= 8 && String.sub name 0 8 = "fixture-"

let row_label (row : Lint.row) =
  let s = row.Lint.report.Analyze.subject in
  Printf.sprintf "%s %s %s"
    (Subjects.family_name s.Subjects.family)
    s.Subjects.alg_name s.Subjects.config

(* ------------------------------------------------------------------ *)
(* Three-way agreement: static = closed form = measured                *)
(* ------------------------------------------------------------------ *)

let test_three_way_agreement () =
  let rows = List.filter (fun r -> not (is_fixture r)) (Lazy.force outcome).Lint.rows in
  check_bool "battery is non-trivial" true (List.length rows >= 40);
  List.iter
    (fun (row : Lint.row) ->
      let subject = row.Lint.report.Analyze.subject in
      let static = row.Lint.report.Analyze.static_cf in
      let label what = row_label row ^ ": " ^ what in
      (* The static sample must equal the harness-measured one in every
         component, not just the headline counts. *)
      check_bool
        (label "static sample = measured sample")
        true
        (static = row.Lint.measured);
      (match subject.Subjects.predicted_steps with
      | Some p ->
        check (label "static steps = closed form") p
          static.Cfc_core.Measures.steps
      | None -> ());
      (match subject.Subjects.predicted_registers with
      | Some p ->
        check (label "static registers = closed form") p
          static.Cfc_core.Measures.registers
      | None -> ());
      check (label "no violations") 0 (List.length row.Lint.violations))
    rows

(* Every family registry must be represented in the battery, so the
   agreement above cannot silently shrink to one family. *)
let test_battery_covers_families () =
  let rows = (Lazy.force outcome).Lint.rows in
  List.iter
    (fun family ->
      check_bool
        (Subjects.family_name family ^ " present")
        true
        (List.exists
           (fun (r : Lint.row) ->
             r.Lint.report.Analyze.subject.Subjects.family = family)
           rows))
    [ Subjects.Mutex; Subjects.Detector; Subjects.Naming; Subjects.Consensus;
      Subjects.Renaming ]

(* ------------------------------------------------------------------ *)
(* Spin-structure classification                                       *)
(* ------------------------------------------------------------------ *)

let find_row name config =
  List.find
    (fun (r : Lint.row) ->
      let s = r.Lint.report.Analyze.subject in
      s.Subjects.alg_name = name && s.Subjects.config = config)
    (Lazy.force outcome).Lint.rows

let test_spin_classes () =
  (* The two shapes the §1.2 remote-access discussion contrasts, pinned:
     the queue lock spins on a register written only in straight-line
     code, the test-and-set locks spin on the contended bit itself.
     (The native benchmark measures the same split from saturated
     rmr/acq; BENCH_native.json records both labels side by side.) *)
  List.iter
    (fun (name, expected) ->
      let row = find_row name "n=2" in
      Alcotest.(check string)
        (name ^ " spin class") expected
        (Analyze.spin_class_name row.Lint.report.Analyze.spin_class))
    [ ("mcs-lock", "local-spin");
      ("tas-lock", "spin-on-shared");
      ("recoverable-tas", "spin-on-shared");
      ("recoverable-queue", "local-spin") ];
  (* The recovery-path subjects go through the same classifier.  The
     symbolic exploration of the [lock] re-entry still covers the
     signal-cell busy-wait branch (even though the concrete solo
     recovery path is straight-line), and that cell is written only in
     straight-line release code — so recovery keeps the local-spin
     class, which is exactly the property the RMR bound needs. *)
  List.iter
    (fun config ->
      let row = find_row "recoverable-queue" config in
      Alcotest.(check string)
        ("recoverable-queue " ^ config ^ " spin class")
        "local-spin"
        (Analyze.spin_class_name row.Lint.report.Analyze.spin_class))
    [ "n=2 recovery-held"; "n=2 recovery-not-held" ];
  (* The one-shot families never busy-wait. *)
  List.iter
    (fun (row : Lint.row) ->
      match row.Lint.report.Analyze.subject.Subjects.family with
      | Subjects.Mutex -> ()
      | Subjects.Detector | Subjects.Naming | Subjects.Consensus
      | Subjects.Renaming ->
        check_bool
          (row_label row ^ " wait-free")
          true
          (row.Lint.report.Analyze.spin_class = Analyze.Wait_free))
    (Lazy.force outcome).Lint.rows

(* ------------------------------------------------------------------ *)
(* The lint gate                                                       *)
(* ------------------------------------------------------------------ *)

let test_lint_gate () =
  let o = Lazy.force outcome in
  (* Every error-severity finding comes from a deliberately broken
     fixture — i.e. the real registry lints clean and the CI gate only
     trips on genuine violations. *)
  List.iter
    (fun (row : Lint.row) ->
      if not (is_fixture row) then
        check_bool
          (row_label row ^ " clean")
          true
          (List.for_all
             (fun (v : Lint.violation) -> v.Lint.severity <> Lint.Error)
             row.Lint.violations))
    o.Lint.rows;
  check_bool "fixtures trip the gate" true (o.Lint.errors > 0);
  check "gate exit code" 1 (Lint.exit_code o);
  let wide = find_row "fixture-wide-spin" "n=2" in
  check_bool "wide-spin atomicity error" true
    (List.exists
       (fun (v : Lint.violation) ->
         v.Lint.code = "atomicity" && v.Lint.severity = Lint.Error)
       wide.Lint.violations);
  (* The report is a lint run record. *)
  let json =
    Cfc_base.Record.to_json (Lint.to_record ~sweep:"registry+fixtures" o)
  in
  check_bool "json names the bench" true
    (let sub = "\"bench\": \"lint\"" in
     let len = String.length sub in
     let rec scan i =
       i + len <= String.length json
       && (String.sub json i len = sub || scan (i + 1))
     in
     scan 0)

(* ------------------------------------------------------------------ *)
(* Product passes: races, liveness, register semantics                 *)
(* ------------------------------------------------------------------ *)

(* The planted lost-wakeup lock must be refuted — a harmful race with
   both access paths, plus the deadlock-risk liveness warning — while
   its benign twin (identical spin/write shape, but the guard register
   provably always holds one value) must come back completely clean.
   The pair pins the classification to the value analysis, not to a
   pattern match on the idiom. *)
let test_lost_wakeup_refuted_benign_clean () =
  let row = find_row "fixture-lost-wakeup" "n=2" in
  check_bool "harmful race is an error" true
    (List.exists
       (fun (v : Lint.violation) ->
         v.Lint.code = "harmful-race" && v.Lint.severity = Lint.Error)
       row.Lint.violations);
  check_bool "deadlock risk is warned" true
    (List.exists
       (fun (v : Lint.violation) ->
         v.Lint.code = "liveness" && v.Lint.severity = Lint.Warning)
       row.Lint.violations);
  check_bool "product agrees" true
    (Product.harmful row.Lint.product <> []
    && row.Lint.product.Product.liveness = Product.Deadlock_risk);
  (* Harmful races carry both parties' rendered access paths. *)
  List.iter
    (fun (r : Product.race) ->
      check_bool "left path rendered" true
        (String.length r.Product.r_left.Product.p_path > 0);
      check_bool "right path rendered" true
        (String.length r.Product.r_right.Product.p_path > 0))
    (Product.harmful row.Lint.product);
  let benign = find_row "fixture-lost-wakeup-benign" "n=2" in
  check "benign twin lints clean" 0 (List.length benign.Lint.violations);
  check_bool "benign twin has no harmful race" true
    (Product.harmful benign.Lint.product = []);
  check_bool "benign twin is not a deadlock risk" true
    (benign.Lint.product.Product.liveness <> Product.Deadlock_risk)

(* The fixtures' analysis, pinned: the graph size, spin class and
   liveness verdict of each.  [fixture-swallows] is the one subject whose
   paths hit a register-op failure the process catches. *)
let test_fixture_analysis_pinned () =
  List.iter
    (fun (name, nodes, edges, spin, liveness) ->
      let row = find_row name "n=2" in
      let r = row.Lint.report in
      check (name ^ " graph nodes") nodes r.Analyze.nodes;
      check (name ^ " graph edges") edges r.Analyze.edges;
      Alcotest.(check string)
        (name ^ " spin class") spin
        (Analyze.spin_class_name r.Analyze.spin_class);
      Alcotest.(check string)
        (name ^ " liveness") liveness
        (Product.liveness_name row.Lint.product.Product.liveness))
    [ ("fixture-wide-spin", 20, 42, "spin-on-shared", "unknown");
      ("fixture-swallows", 8, 12, "spin-on-shared", "deadlock-free-candidate");
      ("fixture-lost-wakeup", 12, 16, "spin-on-shared", "DEADLOCK-RISK");
      ( "fixture-lost-wakeup-benign", 12, 16, "spin-on-shared",
        "deadlock-free-candidate" ) ]

(* The real registry must clear all three product passes: no harmful
   race and no deadlock-risk verdict anywhere (the lint-gate test
   already implies this via severities; this pins the product fields
   directly). *)
let test_registry_products_clean () =
  List.iter
    (fun (row : Lint.row) ->
      if not (is_fixture row) then begin
        check_bool (row_label row ^ ": no harmful race") true
          (Product.harmful row.Lint.product = []);
        check_bool (row_label row ^ ": no deadlock risk") true
          (row.Lint.product.Product.liveness <> Product.Deadlock_risk)
      end)
    (Lazy.force outcome).Lint.rows

(* The recovery-path subjects go through the same product passes at
   n=3 — one size beyond the registry's standard analysis points, the
   smallest n where the pairwise construction showed a previously
   "pairwise sound" registry algorithm broken. *)
let test_recovery_products_n3 () =
  let count = ref 0 in
  List.iter
    (fun alg ->
      let (module A : Cfc_mutex.Mutex_intf.ALG) = alg in
      List.iter
        (fun held ->
          match Subjects.of_mutex_recovery ~held ~n:3 alg with
          | None -> ()
          | Some s ->
            incr count;
            let p = Product.of_report (Analyze.analyze s) in
            let label =
              Printf.sprintf "%s recovery held=%b n=3" A.name held
            in
            check_bool (label ^ ": no harmful race") true
              (Product.harmful p = []);
            check_bool (label ^ ": no deadlock risk") true
              (p.Product.liveness <> Product.Deadlock_risk);
            check_bool (label ^ ": registers classified") true
              (p.Product.registers <> []))
        [ true; false ])
    Cfc_mutex.Registry.recoverable;
  check_bool "recovery subjects analyzed" true (!count >= 4)

(* ------------------------------------------------------------------ *)
(* Determinism source scan                                             *)
(* ------------------------------------------------------------------ *)

let test_sources_deterministic () =
  (* The library tree itself must be clean (seeded [Random.State] only —
     the deterministic-by-default convention, now enforced). *)
  check "lib/ clean" 0
    (List.length (Lazy.force outcome).Lint.source_findings)

let test_scan_detects_global_random () =
  let root = Filename.temp_file "cfc_lint" "" in
  Sys.remove root;
  Unix.mkdir root 0o755;
  Unix.mkdir (Filename.concat root "lib") 0o755;
  let write name contents =
    let oc = open_out (Filename.concat (Filename.concat root "lib") name) in
    output_string oc contents;
    close_out oc
  in
  write "bad.ml" "let roll () = Random.int 6\n";
  write "good.ml"
    "let roll st = Random.State.int st 6\nlet mk () = Random.State.make [| 7 |]\n";
  let findings = Lint.scan_sources ~root in
  check "one finding" 1 (List.length findings);
  let v = List.hd findings in
  Alcotest.(check string) "code" "nondeterminism" v.Lint.code;
  check_bool "names the file" true
    (let sub = "bad.ml" in
     let len = String.length sub in
     let msg = v.Lint.detail in
     let rec scan i =
       i + len <= String.length msg
       && (String.sub msg i len = sub || scan (i + 1))
     in
     scan 0)

(* Outside a checkout the scan has nothing to read; it must report that
   as an error rather than pass having scanned nothing. *)
let test_scan_outside_checkout () =
  let cwd = Sys.getcwd () in
  let findings =
    Fun.protect
      ~finally:(fun () -> Sys.chdir cwd)
      (fun () ->
        Sys.chdir (Filename.get_temp_dir_name ());
        Lint.scan_checkout ())
  in
  match findings with
  | [ v ] ->
    Alcotest.(check string) "code" "no-checkout" v.Lint.code;
    check_bool "error severity" true (v.Lint.severity = Lint.Error)
  | l -> Alcotest.failf "expected one finding, got %d" (List.length l)

let () =
  Alcotest.run "cfc_analysis"
    [ ( "agreement",
        [ Alcotest.test_case "static = closed form = measured" `Quick
            test_three_way_agreement;
          Alcotest.test_case "battery covers every family" `Quick
            test_battery_covers_families ] );
      ( "classification",
        [ Alcotest.test_case "spin classes" `Quick test_spin_classes ] );
      ( "product",
        [ Alcotest.test_case "lost-wakeup refuted, benign twin clean" `Quick
            test_lost_wakeup_refuted_benign_clean;
          Alcotest.test_case "fixture analysis pinned" `Quick
            test_fixture_analysis_pinned;
          Alcotest.test_case "registry clears the product passes" `Quick
            test_registry_products_clean;
          Alcotest.test_case "recovery subjects n=3" `Quick
            test_recovery_products_n3 ] );
      ( "gate",
        [ Alcotest.test_case "fixtures fail, registry passes" `Quick
            test_lint_gate;
          Alcotest.test_case "sources deterministic" `Quick
            test_sources_deterministic;
          Alcotest.test_case "scanner catches global Random" `Quick
            test_scan_detects_global_random;
          Alcotest.test_case "scan fails outside a checkout" `Quick
            test_scan_outside_checkout ] ) ]
