(* cfc-tables: command-line front end to the reproduction.

   Subcommands:
     mutex      print Table M (symbolic + numeric at given n, l)
     naming     print Table N (symbolic + numeric at given n)
     sweep      the Theorem 1-3 sweep over n and l grids
     detect     the §2.6 contention-detection table
     unbounded  the worst-case-unbounded demonstration
     backoff    the §4 workload experiment
     mcheck     bounded-exhaustive verification of an algorithm
     cf         contention-free complexity of one algorithm
     faults     crash-recovery injection, chaos schedules, diagnostics
     native     domain-parallel lock service with RMR counters
     scale      the O(active-set) event-wheel rig at large n
     lint       static access-graph analysis gate (CI fails on errors) *)

open Cmdliner
open Cfc_base
open Cfc_mutex

let n_arg =
  Arg.(value & opt int 64 & info [ "n" ] ~docv:"N" ~doc:"Number of processes.")

let l_arg =
  Arg.(
    value & opt int 2
    & info [ "l" ] ~docv:"L" ~doc:"Atomicity (register width in bits).")

(* A workload that exhausts its step budget is an outcome of its
   parameters, not a bug: one line on stderr and exit 1. *)
let or_stalled f =
  try f ()
  with Cfc_core.Adversary.Stalled _ as e ->
    prerr_endline (Printexc.to_string e);
    exit 1

let mutex_cmd =
  let run n l =
    Texttab.print (Cfc_core.Report.mutex_table_symbolic ());
    print_newline ();
    or_stalled (fun () -> Texttab.print (Cfc_core.Report.mutex_table ~n ~l))
  in
  Cmd.v
    (Cmd.info "mutex" ~doc:"The paper's mutual exclusion bounds table.")
    Term.(const run $ n_arg $ l_arg)

let naming_cmd =
  let run n =
    if not (Ixmath.is_pow2 n) then
      Printf.eprintf "warning: tree algorithms need n a power of two\n";
    Texttab.print (Cfc_core.Report.naming_table_symbolic ());
    print_newline ();
    or_stalled (fun () -> Texttab.print (Cfc_core.Report.naming_table ~n))
  in
  Cmd.v
    (Cmd.info "naming" ~doc:"The paper's naming bounds table.")
    Term.(const run $ n_arg)

let sweep_cmd =
  let ns_arg =
    Arg.(
      value
      & opt (list int) [ 16; 256; 4096 ]
      & info [ "ns" ] ~docv:"N,N,..." ~doc:"Process counts.")
  in
  let ls_arg =
    Arg.(
      value
      & opt (list int) [ 2; 4; 8 ]
      & info [ "ls" ] ~docv:"L,L,..." ~doc:"Atomicities.")
  in
  let run ns ls = Texttab.print (Cfc_core.Report.thm_sweep ~ns ~ls) in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Theorem 1-3: lower/measured/upper sweep.")
    Term.(const run $ ns_arg $ ls_arg)

let detect_cmd =
  let run n l =
    or_stalled (fun () ->
        Texttab.print (Cfc_core.Report.detection_table ~ns:[ n ] ~ls:[ l ]))
  in
  Cmd.v
    (Cmd.info "detect" ~doc:"Contention detection (§2.6) table.")
    Term.(const run $ n_arg $ l_arg)

let unbounded_cmd =
  let run () =
    Texttab.print
      (Cfc_core.Report.unbounded_table ~spins:[ 10; 100; 1000; 10000 ])
  in
  Cmd.v
    (Cmd.info "unbounded"
       ~doc:"Demonstrate the unbounded worst-case entry cost [AT92].")
    Term.(const run $ const ())

let alg_arg =
  let names =
    String.concat ", "
      (List.map (fun (module A : Mutex_intf.ALG) -> A.name) Registry.all)
  in
  Arg.(
    value & opt string "lamport-fast"
    & info [ "algorithm"; "a" ] ~docv:"NAME"
        ~doc:(Printf.sprintf "Mutex algorithm: one of %s." names))

let find_alg name =
  match Registry.find name with
  | Some alg -> alg
  | None ->
    Printf.eprintf "unknown algorithm %s\n" name;
    exit 2

(* Every subcommand that instantiates an algorithm must reject unsupported
   parameters with a clean message, not an OCaml backtrace. *)
let find_supported_alg name p =
  let ((module A : Mutex_intf.ALG) as alg) = find_alg name in
  if not (A.supports p) then begin
    Printf.eprintf "%s does not support n=%d l=%d\n" A.name p.Mutex_intf.n
      p.Mutex_intf.l;
    exit 2
  end;
  alg

let cf_cmd =
  let run name n l =
    let p = { Mutex_intf.n; l } in
    let ((module A : Mutex_intf.ALG) as alg) = find_supported_alg name p in
    let r = Cfc_core.Mutex_harness.contention_free alg p in
    Format.printf "%s n=%d l=%d (atomicity %d): contention-free %a@."
      A.name n l r.Cfc_core.Mutex_harness.atomicity_observed
      Cfc_core.Measures.pp_sample r.Cfc_core.Mutex_harness.max
  in
  Cmd.v
    (Cmd.info "cf" ~doc:"Contention-free complexity of one algorithm.")
    Term.(const run $ alg_arg $ n_arg $ l_arg)

let engine_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("incremental", Cfc_mcheck.Explore.Incremental);
             ("replay", Cfc_mcheck.Explore.Replay) ])
        Cfc_mcheck.Explore.Incremental
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Rollback policy of the search: $(b,incremental) (default) \
           rebuilds only the processes an undone branch touched; \
           $(b,replay) rebuilds every process on each rollback and gives \
           the same numbers.")

let mcheck_cmd =
  let depth_arg =
    Arg.(
      value & opt int 60
      & info [ "depth" ] ~docv:"D" ~doc:"Max scheduler steps per run.")
  in
  let no_por_arg =
    Arg.(
      value & flag
      & info [ "no-por" ]
          ~doc:
            "Disable the access-graph partial-order reduction (explore \
             every interleaving the memoization alone would).")
  in
  let sym_arg =
    Arg.(
      value & flag
      & info [ "sym" ]
          ~doc:
            "Enable the pid-symmetry reduction: memo keys are \
             canonicalised under the admissible pid permutations derived \
             from the access-graph analysis (a no-op when no non-trivial \
             group is derivable, e.g. the pid-ordered tree scan).")
  in
  let compact_arg =
    Arg.(
      value & flag
      & info [ "compact" ]
          ~doc:
            "Store 2x62-bit state fingerprints instead of full keys in \
             the seen set (detected collisions are re-explored, counted, \
             and reported).")
  in
  let run name n l depth engine no_por sym compact =
    let alg = find_supported_alg name { Mutex_intf.n; l } in
    let config =
      { Cfc_mcheck.Explore.max_depth = depth; max_steps_per_proc = depth;
        max_states = 2_000_000 }
    in
    (* The access-graph analysis yields the independence hint that drives
       the partial-order reduction. *)
    let independence =
      if no_por then None
      else Cfc_mcheck.Independence.mutex alg { Mutex_intf.n; l }
    in
    let symmetry =
      if not sym then None
      else
        match Cfc_mcheck.Symmetry.mutex alg { Mutex_intf.n; l } with
        | Some _ as s -> s
        | None ->
          Printf.printf
            "note: no non-trivial symmetry group derivable; --sym is a \
             no-op\n";
          None
    in
    match
      Cfc_mcheck.Props.check_mutex ~config ~engine ?independence ?symmetry
        ~compact alg { Mutex_intf.n; l }
    with
    | Cfc_mcheck.Explore.Ok stats ->
      (* A search that hit a bound proves nothing about the runs past it:
         it gets its own verdict word and exit status, never OK. *)
      let truncated = stats.Cfc_mcheck.Explore.truncated in
      Printf.printf
        "%s (%d maximal runs, %d states explored, %d deduped, %d \
         sym-merged, %d por-pruned, seen %d/%d%s)\n"
        (if truncated then
           "TRUNCATED: no violation found, but some branches hit the depth, \
            step or state bound"
         else "OK: no violation within bounds")
        stats.Cfc_mcheck.Explore.runs stats.Cfc_mcheck.Explore.states
        stats.Cfc_mcheck.Explore.pruned_dedup
        stats.Cfc_mcheck.Explore.pruned_sym
        stats.Cfc_mcheck.Explore.pruned_por
        stats.Cfc_mcheck.Explore.seen_pop stats.Cfc_mcheck.Explore.seen_cap
        (if stats.Cfc_mcheck.Explore.fp_collisions > 0 then
           Printf.sprintf ", %d fp collisions re-explored"
             stats.Cfc_mcheck.Explore.fp_collisions
         else "");
      if truncated then exit 3
    | Cfc_mcheck.Explore.Violation { schedule; violation; _ } ->
      Format.printf "VIOLATION: %a@.schedule: %s@." Cfc_core.Spec.pp_violation
        violation
        (String.concat "," (List.map string_of_int schedule));
      exit 1
  in
  Cmd.v
    (Cmd.info "mcheck"
       ~doc:"Bounded-exhaustive mutual exclusion verification."
       ~exits:
         (Cmd.Exit.info 0
            ~doc:"the search was exhaustive and found no violation (OK)."
         :: Cmd.Exit.info 1 ~doc:"a violation was found (VIOLATION)."
         :: Cmd.Exit.info 2
              ~doc:"the algorithm is unknown or does not support the \
                    parameters."
         :: Cmd.Exit.info 3
              ~doc:"no violation was found, but some branches were cut off \
                    by the depth, step or state bound, so the result is not \
                    a proof (TRUNCATED)."
         :: List.filter
              (fun i -> Cmd.Exit.info_code i <> 0)
              Cmd.Exit.defaults))
    Term.(
      const run $ alg_arg $ n_arg $ l_arg $ depth_arg $ engine_arg
      $ no_por_arg $ sym_arg $ compact_arg)

let trace_cmd =
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED" ~doc:"Random schedule seed.")
  in
  let limit_arg =
    Arg.(
      value & opt int 60
      & info [ "limit" ] ~docv:"K" ~doc:"Print at most K events.")
  in
  let run name n l seed limit =
    let alg = find_supported_alg name { Mutex_intf.n; l } in
    let out =
      Cfc_core.Mutex_harness.run
        ~pick:(Cfc_runtime.Schedule.random ~seed)
        alg { Mutex_intf.n; l }
    in
    let printed = ref 0 in
    Cfc_runtime.Trace.iter
      (fun e ->
        if !printed < limit then begin
          incr printed;
          Format.printf "%a@." Cfc_runtime.Event.pp e
        end)
      out.Cfc_runtime.Runner.trace;
    Printf.printf "... (%d events total, %d shared accesses)\n"
      (Cfc_runtime.Trace.length out.Cfc_runtime.Runner.trace)
      out.Cfc_runtime.Runner.total_steps
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Dump the event trace of a contended run.")
    Term.(const run $ alg_arg $ n_arg $ l_arg $ seed_arg $ limit_arg)

let backoff_cmd =
  let run () =
    or_stalled (fun () ->
        Texttab.print (Cfc_workload.Workload_report.backoff_table ()))
  in
  Cmd.v
    (Cmd.info "backoff"
       ~doc:"The §4 backoff workload experiment (EXP-BACKOFF's table).")
    Term.(const run $ const ())

let faults_cmd =
  let seeds_arg =
    Arg.(
      value
      & opt (list int) [ 1; 2; 3; 4; 5 ]
      & info [ "seeds" ] ~docv:"S,S,..." ~doc:"Chaos schedule seeds.")
  in
  let pairs_arg =
    Arg.(
      value & opt int 2
      & info [ "pairs" ] ~docv:"K"
          ~doc:"Crash-recovery pairs injected per run.")
  in
  (* Default: every recoverable lock in the registry; a new recoverable
     algorithm is exercised by this subcommand the moment it registers.
     [-a NAME] restricts to one lock (which must be recoverable). *)
  let rec_alg_arg =
    let names =
      String.concat ", "
        (List.map
           (fun (module A : Mutex_intf.ALG) -> A.name)
           Registry.recoverable)
    in
    Arg.(
      value & opt (some string) None
      & info [ "algorithm"; "a" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf
               "Restrict to one recoverable lock (one of %s); default: all."
               names))
  in
  let run name n pairs seeds =
    let p = Mutex_intf.params n in
    let algs =
      match name with
      | Some name ->
        let ((module A : Mutex_intf.ALG) as alg) = find_supported_alg name p in
        if A.recovery p = None then begin
          Printf.eprintf "%s is not a recoverable lock\n" A.name;
          exit 2
        end;
        [ alg ]
      | None ->
        List.filter
          (fun (module A : Mutex_intf.ALG) -> A.supports p)
          Registry.recoverable
    in
    Texttab.print
      (Cfc_core.Report.recoverable_table
         ~ns:(List.sort_uniq compare [ 2; 4; 8; n ]));
    let truncated = ref false in
    List.iter
      (fun ((module A : Mutex_intf.ALG) as alg) ->
        print_newline ();
        (* Bounded-exhaustive verification under the fault model, ahead of
           the randomized chaos schedules below. *)
        (match Cfc_mcheck.Props.check_mutex_recoverable ~pairs alg p with
        | Cfc_mcheck.Explore.Ok stats ->
          (* As in [mcheck]: a search cut off by a bound is not a proof. *)
          let cut = stats.Cfc_mcheck.Explore.truncated in
          if cut then truncated := true;
          Printf.printf "mcheck %s %s (%d states, %d pruned)\n" A.name
            (if cut then
               "TRUNCATED: no violation found, but some branches hit the \
                depth, step or state bound"
             else "OK: recoverable mutual exclusion holds within bounds")
            stats.Cfc_mcheck.Explore.states
            stats.Cfc_mcheck.Explore.pruned_dedup
        | Cfc_mcheck.Explore.Violation { schedule; violation; _ } ->
          Format.printf "mcheck %s VIOLATION: %a@.schedule: %s@." A.name
            Cfc_core.Spec.pp_violation violation
            (String.concat ","
               (List.map
                  (Format.asprintf "%a" Cfc_mcheck.Explore.pp_action)
                  schedule));
          exit 1);
        print_newline ();
        Printf.printf
          "chaos runs: %s, n=%d, %d crash-recovery pairs per seed\n" A.name n
          pairs;
        let table, stalled =
          Cfc_core.Report.faults_table ~alg ~n ~pairs ~seeds
        in
        Texttab.print table;
        match stalled with
        | None -> ()
        | Some out ->
          print_newline ();
          print_string "diagnosis of the first stalled run:\n";
          Format.printf "%a@." Cfc_runtime.Runner.pp_diagnosis out)
      algs;
    if !truncated then exit 3
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Crash-recovery fault injection: every recoverable lock's \
          predicted-vs-measured recovery paths, seeded chaos schedules, \
          and stall diagnostics."
       ~exits:
         (Cmd.Exit.info 0
            ~doc:"every lock's bounded search was exhaustive and found no \
                  violation."
         :: Cmd.Exit.info 1
              ~doc:"a lock's bounded search found a violation (VIOLATION)."
         :: Cmd.Exit.info 2
              ~doc:"the algorithm is unknown, not recoverable, or does not \
                    support the parameters."
         :: Cmd.Exit.info 3
              ~doc:"no violation was found, but some lock's search was cut \
                    off by the depth, step or state bound, so its result is \
                    not a proof (TRUNCATED)."
         :: List.filter
              (fun i -> Cmd.Exit.info_code i <> 0)
              Cmd.Exit.defaults))
    Term.(const run $ rec_alg_arg $ n_arg $ pairs_arg $ seeds_arg)

let native_cmd =
  let domains_list_arg =
    Arg.(
      value
      & opt (list int) [ 1; 2; 4 ]
      & info [ "domains" ] ~docv:"D,D,..." ~doc:"Worker domain counts.")
  in
  let thinks_arg =
    Arg.(
      value
      & opt (list int) [ 0; 20 ]
      & info [ "thinks" ] ~docv:"T,T,..."
          ~doc:"Mean geometric think times (cpu_relax turns).")
  in
  let rounds_arg =
    Arg.(
      value & opt int 2_000
      & info [ "rounds" ] ~docv:"R" ~doc:"Acquisitions per domain.")
  in
  let run name domain_counts thinks rounds =
    let ((module A : Mutex_intf.ALG) as alg) = find_alg name in
    let t =
      Texttab.create
        ~header:[ "domains"; "think"; "acq/s"; "p50 ns"; "p90 ns"; "p99 ns";
                  "max ns"; "rmr/acq"; "cas fail"; "excl" ]
    in
    List.iter
      (fun domains ->
        if A.supports (Mutex_intf.params (max 2 domains)) then
          List.iter
            (fun mean_think ->
              let r =
                Cfc_native.Lock_service.run alg
                  { Cfc_native.Lock_service.domains; rounds; mean_think;
                    cs_len = 3; seed = 42; crash_every = 0 }
              in
              let open Cfc_native.Lock_service in
              Texttab.add_row t
                [ string_of_int domains; string_of_int mean_think;
                  Printf.sprintf "%.0f" r.throughput;
                  Printf.sprintf "%.0f" r.p50_ns;
                  Printf.sprintf "%.0f" r.p90_ns;
                  Printf.sprintf "%.0f" r.p99_ns;
                  string_of_int r.max_ns;
                  Printf.sprintf "%.2f" r.rmr_per_acq;
                  string_of_int r.counters.Cfc_native.Instr_mem.cas_failures;
                  (if r.exclusion_ok then "ok" else "VIOLATED") ])
            thinks
        else
          Printf.eprintf "%s: skipping domains=%d (unsupported)\n" A.name
            domains)
      domain_counts;
    Printf.printf
      "%s on the instrumented native backend (%d rounds/domain, \
       write-invalidate RMR estimate):\n"
      A.name rounds;
    Texttab.print t
  in
  Cmd.v
    (Cmd.info "native"
       ~doc:
         "Domain-parallel lock service on the instrumented native backend: \
          throughput, acquisition-latency percentiles, and \
          RMR-per-acquisition.")
    Term.(const run $ alg_arg $ domains_list_arg $ thinks_arg $ rounds_arg)

let models_cmd =
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:"List every one of the 256 models instead of the summary.")
  in
  let run all =
    let atlas = Cfc_naming.Model_atlas.all () in
    if all then begin
      let t =
        Texttab.create
          ~header:[ "model"; "c-f reg"; "c-f step"; "w-c reg"; "w-c step";
                    "witness" ]
      in
      List.iter
        (fun (m, c) ->
          match c with
          | Cfc_naming.Model_atlas.Unsolvable ->
            Texttab.add_row t
              [ Model.to_string m; "unsolvable"; ""; ""; ""; "§3.1 symmetry" ]
          | Cfc_naming.Model_atlas.Bounds b ->
            let cell c = Format.asprintf "%a" Cfc_naming.Model_atlas.pp_cell c in
            Texttab.add_row t
              [ Model.to_string m; cell b.cf_register; cell b.cf_step;
                cell b.wc_register; cell b.wc_step; b.witness ])
        atlas;
      Texttab.print t
    end
    else begin
      Printf.printf
        "model atlas (the §3.3 exercise): %d of 256 models solvable\n\
         (the 32 breaker-free models — every op either never modifies or\n\
         never returns — cannot break symmetry).\n\n\
         equivalence classes of the solvable models:\n"
        (Cfc_naming.Model_atlas.solvable_count ());
      let classes = Hashtbl.create 8 in
      List.iter
        (fun (_, c) ->
          match c with
          | Cfc_naming.Model_atlas.Unsolvable -> ()
          | Cfc_naming.Model_atlas.Bounds b ->
            let key =
              (b.cf_register, b.cf_step, b.wc_register, b.wc_step)
            in
            Hashtbl.replace classes key
              (1 + Option.value ~default:0 (Hashtbl.find_opt classes key)))
        atlas;
      let t =
        Texttab.create
          ~header:[ "c-f reg"; "c-f step"; "w-c reg"; "w-c step"; "#models" ]
      in
      Hashtbl.iter
        (fun (a, b, c, d) count ->
          let cell x =
            Format.asprintf "%a" Cfc_naming.Model_atlas.pp_cell x
          in
          Texttab.add_row t
            [ cell a; cell b; cell c; cell d; string_of_int count ])
        classes;
      Texttab.print t;
      print_string "use --all for the full 256-row table.\n"
    end
  in
  Cmd.v
    (Cmd.info "models"
       ~doc:"Classify all 256 operation models (the §3.3 exercise).")
    Term.(const run $ all_arg)

let scale_cmd =
  let n_arg =
    Arg.(
      value & opt int 4096
      & info [ "n" ] ~docv:"N" ~doc:"Number of processes (clients).")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Root seed (think-time streams and the chaos plan).")
  in
  let chaos_arg =
    Arg.(
      value & flag
      & info [ "chaos" ]
          ~doc:
            "Run the crash-recovery workload (recoverable locks only) \
             instead of the contention-free curve.")
  in
  let pairs_arg =
    Arg.(
      value & opt (some int) None
      & info [ "pairs" ] ~docv:"K"
          ~doc:"Crash-recovery pairs for --chaos (default: one per client).")
  in
  let scale_alg_arg =
    Arg.(
      value & opt (some string) None
      & info [ "algorithm"; "a" ] ~docv:"NAME"
          ~doc:"Restrict to one algorithm; default: every supporting one.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Also write the rows as a run record (the layout and columns \
             of BENCH_scale.json).")
  in
  let run name n seed chaos pairs json =
    let p = Mutex_intf.params n in
    let algs =
      match name with
      | Some name ->
        let ((module A : Mutex_intf.ALG) as alg) = find_supported_alg name p in
        if chaos && A.recovery p = None then begin
          Printf.eprintf "%s is not a recoverable lock\n" A.name;
          exit 2
        end;
        [ alg ]
      | None ->
        List.filter
          (fun (module A : Mutex_intf.ALG) ->
            A.supports p && ((not chaos) || A.recovery p <> None))
          (if chaos then Registry.recoverable else Registry.all)
    in
    if algs = [] then begin
      Printf.eprintf "no algorithm supports n=%d%s\n" n
        (if chaos then " with recovery" else "");
      exit 2
    end;
    let open Cfc_workload in
    let write_json table_name columns rows =
      match json with
      | None -> ()
      | Some path ->
        Record.(
          write path
            { bench = "scale";
              sweep =
                Printf.sprintf "n=%d a=%s" n
                  (Option.value name ~default:"all");
              tables = [ table table_name columns rows ] });
        Printf.printf "wrote %s\n" path
    in
    if chaos then begin
      let pairs = match pairs with Some k -> k | None -> n in
      let sc =
        { Workload.sc_n = n; sc_rounds = 2; sc_mean_think = 4 * n;
          sc_cs_len = 3; sc_seed = seed; sc_chaos_pairs = pairs }
      in
      let rows =
        or_stalled (fun () ->
            List.map (fun alg -> Workload_report.scale_chaos_row alg sc) algs)
      in
      Printf.printf
        "chaos rig: n=%d clients, %d crash-recovery pairs, seed=%d \
         (deterministic; the exclusion monitor runs streamed)\n"
        n pairs seed;
      Texttab.print (Workload_report.scale_chaos_table rows);
      write_json "chaos_entries" Workload_report.scale_chaos_columns rows
    end
    else begin
      let rows =
        List.map (fun alg -> Workload_report.scale_cf_row alg ~n) algs
      in
      Printf.printf
        "streaming contention-free curve at n=%d (event wheel, no trace; \
         checked against the registered closed forms)\n"
        n;
      Texttab.print (Workload_report.scale_cf_table rows);
      write_json "cf_entries" Workload_report.scale_cf_columns rows;
      if List.exists (fun r -> not r.Workload_report.scf_ok) rows then begin
        Printf.eprintf "closed-form mismatch (see the table)\n";
        exit 1
      end
    end
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:
         "The O(active-set) event-wheel rig: streaming contention-free \
          measurements at large n, or ([--chaos]) thousands of seeded \
          crash-recovering clients against a recoverable lock.")
    Term.(
      const run $ scale_alg_arg $ n_arg $ seed_arg $ chaos_arg $ pairs_arg
      $ json_arg)

let kv_cmd =
  let alg_arg =
    Arg.(
      value & opt string "mcs-lock"
      & info [ "algorithm"; "a" ] ~docv:"NAME"
          ~doc:"The registry lock guarding every bucket.")
  in
  let driver_arg =
    Arg.(
      value
      & opt (enum [ ("wheel", `Wheel); ("native", `Native) ]) `Wheel
      & info [ "driver" ] ~docv:"DRIVER"
          ~doc:
            "$(b,wheel): deterministic event-wheel clients with per-shard \
             streaming measures; $(b,native): domain-parallel with \
             latency histograms and the RMR estimate.")
  in
  let clients_arg =
    Arg.(
      value & opt int 256
      & info [ "clients"; "n" ] ~docv:"N"
          ~doc:"Simulated clients (wheel) or worker domains (native).")
  in
  let buckets_arg =
    Arg.(
      value & opt int 16
      & info [ "buckets" ] ~docv:"B" ~doc:"Shards, one lock each.")
  in
  let keys_arg =
    Arg.(value & opt int 4096 & info [ "keys" ] ~docv:"K" ~doc:"Key space.")
  in
  let ops_arg =
    Arg.(
      value & opt int 8
      & info [ "ops" ] ~docv:"OPS" ~doc:"Operations per client.")
  in
  let theta_arg =
    Arg.(
      value & opt float 0.99
      & info [ "theta" ] ~docv:"THETA"
          ~doc:"Zipf skew: 0 uniform, 0.99 YCSB-zipfian.")
  in
  let mix_arg =
    Arg.(
      value & opt string "A"
      & info [ "mix" ] ~docv:"MIX" ~doc:"YCSB mix: A, B, C or E.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Root seed.")
  in
  let run name driver clients buckets keys ops theta mix seed =
    let open Cfc_workload in
    let mix =
      match Ycsb.mix_of_name mix with
      | Some m -> m
      | None ->
        Printf.eprintf "unknown mix %s (A, B, C or E)\n" mix;
        exit 2
    in
    let p = Mutex_intf.params (max 2 clients) in
    let alg = find_supported_alg name p in
    let pct x = Printf.sprintf "%.0f" x in
    match driver with
    | `Wheel ->
      let kc =
        { Kv_sim.kc_clients = clients; kc_buckets = buckets; kc_keys = keys;
          kc_ops = ops; kc_mean_think = 4 * clients; kc_theta = theta;
          kc_mix = mix; kc_seed = seed }
      in
      let r = or_stalled (fun () -> Kv_sim.run alg kc) in
      Printf.printf
        "sharded KV on the event wheel: %d clients, %d buckets, %d keys, \
         mix %s, theta=%.2f, seed=%d (deterministic)\n\
         ops=%d acquisitions=%d lost_updates=%d torn_scans=%d \
         hot_share=%.3f turns=%d steps=%d live_peak=%d\n"
        clients buckets keys mix.Ycsb.mix_name theta seed r.Kv_sim.kr_ops
        r.kr_acquisitions r.kr_lost_updates r.kr_torn_scans r.kr_hot_share
        r.kr_turns r.kr_total_steps r.kr_live_peak;
      let t =
        Texttab.create
          ~header:
            [ "shard"; "ops"; "read"; "upd"; "scan"; "rmw"; "acq";
              "entry max"; "entry mean"; "events" ]
      in
      Array.iteri
        (fun b (s : Kv_sim.shard_stat) ->
          Texttab.add_row t
            [ string_of_int b; string_of_int s.Kv_sim.ss_ops;
              string_of_int s.ss_kinds.reads; string_of_int s.ss_kinds.updates;
              string_of_int s.ss_kinds.scans; string_of_int s.ss_kinds.rmws;
              string_of_int s.ss_acquisitions;
              string_of_int s.ss_entry_steps_max;
              Printf.sprintf "%.1f" s.ss_entry_steps_mean;
              string_of_int s.ss_events ])
        r.kr_shards;
      Texttab.print t
    | `Native ->
      let c =
        { Cfc_native.Kv_service.domains = clients; buckets; keys; ops;
          mean_think = 10; theta; mix; seed }
      in
      let r = Cfc_native.Kv_service.run alg c in
      let open Cfc_native.Kv_service in
      Printf.printf
        "sharded KV, domain-parallel: %d domains, %d buckets, %d keys, \
         mix %s, theta=%.2f, seed=%d\n\
         ops=%d throughput=%.0f/s p50=%.0fns p99=%.0fns rmr/op=%.3f \
         lost_updates=%d torn_scans=%d exclusion=%s hot_share=%.3f\n"
        clients buckets keys mix.Ycsb.mix_name theta seed r.total_ops
        r.throughput r.p50_ns r.p99_ns r.rmr_per_op r.lost_updates
        r.torn_scans
        (if r.exclusion_ok then "ok" else "VIOLATED")
        r.hot_share;
      let t =
        Texttab.create
          ~header:
            [ "shard"; "ops"; "read"; "upd"; "scan"; "rmw"; "p50 ns";
              "p99 ns"; "max ns" ]
      in
      Array.iteri
        (fun b s ->
          Texttab.add_row t
            [ string_of_int b; string_of_int s.ks_ops;
              string_of_int s.ks_kinds.reads; string_of_int s.ks_kinds.updates;
              string_of_int s.ks_kinds.scans; string_of_int s.ks_kinds.rmws;
              pct s.ks_p50_ns; pct s.ks_p99_ns; string_of_int s.ks_max_ns ])
        r.shards;
      Texttab.print t;
      if not r.exclusion_ok then exit 1
  in
  Cmd.v
    (Cmd.info "kv"
       ~doc:
         "Sharded lock-backed KV service under Zipfian YCSB traffic \
          (EXP-KV): every bucket guarded by one registry lock, driven \
          deterministically on the event wheel or domain-parallel with \
          the RMR estimate.")
    Term.(
      const run $ alg_arg $ driver_arg $ clients_arg $ buckets_arg
      $ keys_arg $ ops_arg $ theta_arg $ mix_arg $ seed_arg)

let lint_cmd =
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Also write the report as a run record (the layout of \
             lint_report.json) to $(docv) ('-' for stdout).")
  in
  let fixtures_arg =
    Arg.(
      value & flag
      & info [ "fixtures" ]
          ~doc:
            "Include the deliberately broken fixtures; the gate must then \
             exit nonzero.")
  in
  let run json fixtures =
    let outcome = Cfc_analysis.Lint.run ~fixtures () in
    let record () =
      Cfc_analysis.Lint.to_record
        ~sweep:(if fixtures then "registry+fixtures" else "registry")
        outcome
    in
    (* With the record on stdout, keep stdout machine-readable and let
       the table go to callers that asked for a file (or nothing). *)
    (match json with
    | Some "-" -> Record.write "-" (record ())
    | Some path ->
      Cfc_analysis.Lint.print outcome;
      Record.write path (record ());
      Printf.printf "wrote %s\n" path
    | None -> Cfc_analysis.Lint.print outcome);
    Stdlib.exit (Cfc_analysis.Lint.exit_code outcome)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static analysis gate: symbolic access-graph CF complexity vs \
          closed forms and traces, atomicity conformance, spin structure \
          and the determinism source scan.")
    Term.(const run $ json_arg $ fixtures_arg)

let races_cmd =
  let fixtures_arg =
    Arg.(
      value & flag
      & info [ "fixtures" ]
          ~doc:"Include the deliberately broken fixtures.")
  in
  let subject_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "subject" ] ~docv:"NAME"
          ~doc:"Only subjects whose algorithm name contains $(docv).")
  in
  let verbose_arg =
    Arg.(
      value & flag
      & info [ "verbose"; "v" ]
          ~doc:"Print the full per-subject race/wakeup/register tables.")
  in
  let run fixtures subject verbose =
    let subjects =
      Cfc_analysis.Subjects.registry ()
      @ (if fixtures then Cfc_analysis.Fixtures.subjects () else [])
    in
    let subjects =
      match subject with
      | None -> subjects
      | Some s ->
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec at i =
            i + nn <= nh && (String.sub hay i nn = needle || at (i + 1))
          in
          at 0
        in
        List.filter
          (fun (x : Cfc_analysis.Subjects.t) -> contains x.alg_name s)
          subjects
    in
    let harmful_total = ref 0 in
    let summary =
      Texttab.create
        ~header:
          [ "algorithm"; "config"; "liveness"; "races"; "harmful"; "benign";
            "atomic-req" ]
    in
    List.iter
      (fun (s : Cfc_analysis.Subjects.t) ->
        let report = Cfc_analysis.Analyze.analyze s in
        let p = Cfc_analysis.Product.of_report report in
        let harmful = Cfc_analysis.Product.harmful p in
        harmful_total := !harmful_total + List.length harmful;
        let benign =
          List.length
            (List.filter
               (fun (r : Cfc_analysis.Product.race) ->
                 r.r_verdict <> Cfc_analysis.Product.Sync
                 && r.r_verdict <> Cfc_analysis.Product.Harmful)
               p.races)
        in
        let atomic_req =
          List.filter
            (fun (g : Cfc_analysis.Product.reg_verdict) ->
              g.g_semantics = Cfc_analysis.Product.Atomic_required)
            p.registers
        in
        Texttab.add_row summary
          [
            s.alg_name; s.config;
            Cfc_analysis.Product.liveness_name p.liveness;
            string_of_int (List.length p.races);
            string_of_int (List.length harmful);
            string_of_int benign;
            String.concat ","
              (List.map
                 (fun (g : Cfc_analysis.Product.reg_verdict) -> g.g_name)
                 atomic_req);
          ];
        if verbose then Cfc_analysis.Product.print p
        else
          List.iter
            (fun (r : Cfc_analysis.Product.race) ->
              Printf.printf "HARMFUL %s %s on %s: %s\n  %s: %s\n  %s: %s\n"
                s.alg_name s.config r.r_name r.r_note r.r_left.p_group
                r.r_left.p_path r.r_right.p_group r.r_right.p_path)
            harmful)
      subjects;
    Texttab.print summary;
    if !harmful_total > 0 then Stdlib.exit 1
  in
  Cmd.v
    (Cmd.info "races"
       ~doc:
         "Pairwise product passes over the solo access graphs: race \
          classification, spin-wakeup liveness skeleton, and \
          weaker-register sensitivity per subject.")
    Term.(const run $ fixtures_arg $ subject_arg $ verbose_arg)

let () =
  let doc =
    "Reproduction of Alur & Taubenfeld, 'Contention-Free Complexity of \
     Shared Memory Algorithms' (PODC 1994)."
  in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "cfc-tables" ~version:"1.0.0" ~doc)
          [ mutex_cmd; naming_cmd; sweep_cmd; detect_cmd; unbounded_cmd;
            cf_cmd; mcheck_cmd; backoff_cmd; trace_cmd; faults_cmd;
            native_cmd; scale_cmd; kv_cmd; models_cmd; lint_cmd;
            races_cmd ]))
