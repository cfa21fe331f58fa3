(* Native lock-service benchmark: every supporting registry algorithm is
   swept over domain counts × think times on the instrumented backend,
   and the per-configuration throughput, acquisition-latency percentiles
   and RMR-per-acquisition estimates are written to BENCH_native.json
   (same accumulate-across-PRs idea as BENCH_mcheck.json).

   The headline column is rmr/acq: under saturation (think 0, max
   domains) the local-spin queue lock keeps it near its solo value while
   the spin-on-shared locks (tas, bakery, ...) grow with contention —
   the §1.2 remote-access discussion, measured.  Solo rows also carry
   the simulated solo remote-access count per acquisition, which must
   match the instrumented count exactly (a test asserts it; here it is
   recorded for the record). *)

open Cfc_runtime
open Cfc_mutex
open Cfc_native

type entry = {
  name : string;
  domains : int;
  mean_think : int;
  rounds : int;
  cs_len : int;
  r : Lock_service.result;
  sim_rmr_per_acq : float option;  (* solo rows only *)
}

(* The simulated twin of a solo lock-service run: same n=2 instance and
   the same lock cycle with the same critical-section writes
   (Cfc_core.Client), on the simulator rig, process 0 in one solo run on
   the contention-free driver (Cfc_core.Solo).  Its YA93 remote-access
   count is the ground truth the instrumented counter must reproduce. *)
let sim_solo_rmr (module A : Mutex_intf.ALG) ~rounds ~cs_len =
  let p = Mutex_intf.params 2 in
  let spawn =
    Cfc_core.Client.(
      clients ~rounds (module A) p (Sim_mem.mem (Memory.create ()))
        ~section:(scratch ~name:"svc.scratch" ~cs_len)
        (sim ~think:ignore))
  in
  let rmr =
    Cfc_core.Solo.each ~nprocs:2 ~spawn [ 0 ] Cfc_core.Measures.Online.remote
  in
  float_of_int rmr.(0) /. float_of_int (max 1 rounds)

let run_one (module A : Mutex_intf.ALG) ~domains ~mean_think ~rounds ~cs_len =
  let config =
    { Lock_service.domains; rounds; mean_think; cs_len; seed = 42; crash_every = 0 }
  in
  let r = Lock_service.run (module A) config in
  if not r.Lock_service.exclusion_ok then begin
    Printf.eprintf "mutual exclusion violated: %s domains=%d\n" A.name domains;
    exit 1
  end;
  let sim_rmr_per_acq =
    if domains = 1 then Some (sim_solo_rmr (module A) ~rounds ~cs_len)
    else None
  in
  Printf.printf
    "%-18s d=%d think=%-3d %9.0f acq/s  p50=%-8.0f p99=%-8.0f rmr/acq=%6.2f%s\n%!"
    A.name domains mean_think r.Lock_service.throughput
    r.Lock_service.p50_ns r.Lock_service.p99_ns r.Lock_service.rmr_per_acq
    (match sim_rmr_per_acq with
    | Some s -> Printf.sprintf "  (sim %.2f)" s
    | None -> "");
  { name = A.name; domains; mean_think; rounds; cs_len; r; sim_rmr_per_acq }

(* Only exclusion_ok is gated: every other measured column is wall
   clock or depends on the interleaving. *)
let entry_columns =
  let open Cfc_base.Record in
  let c f e = Int (f e.r.Lock_service.counters) in
  [ col "name" Key (fun e -> Str e.name);
    col "domains" Key (fun e -> Int e.domains);
    col "mean_think" Key (fun e -> Int e.mean_think);
    col "rounds" Note (fun e -> Int e.rounds);
    col "cs_len" Note (fun e -> Int e.cs_len);
    col "acquisitions" Note (fun e -> Int e.r.Lock_service.acquisitions);
    col "elapsed_ns" Wall (fun e -> Int e.r.Lock_service.elapsed_ns);
    fcol ~decimals:1 "throughput" Wall
      (fun e -> Float e.r.Lock_service.throughput);
    fcol ~decimals:1 "p50_ns" Wall (fun e -> Float e.r.Lock_service.p50_ns);
    fcol ~decimals:1 "p90_ns" Wall (fun e -> Float e.r.Lock_service.p90_ns);
    fcol ~decimals:1 "p99_ns" Wall (fun e -> Float e.r.Lock_service.p99_ns);
    col "max_ns" Wall (fun e -> Int e.r.Lock_service.max_ns);
    col "ops" Wall (c (fun c -> c.Instr_mem.ops));
    col "reads" Wall (c (fun c -> c.Instr_mem.reads));
    col "writes" Wall (c (fun c -> c.Instr_mem.writes));
    col "cas_attempts" Wall (c (fun c -> c.Instr_mem.cas_attempts));
    col "cas_failures" Wall (c (fun c -> c.Instr_mem.cas_failures));
    col "rmr" Wall (c (fun c -> c.Instr_mem.rmr));
    fcol ~decimals:4 "rmr_per_acq" Wall
      (fun e -> Float e.r.Lock_service.rmr_per_acq);
    fcol ~decimals:4 "sim_rmr_per_acq" Note (fun e ->
        match e.sim_rmr_per_acq with Some s -> Float s | None -> Null);
    col "exclusion_ok" No_drop (fun e -> Bool e.r.Lock_service.exclusion_ok) ]

(* Crash-injection sweep over every recoverable registry lock: seeded
   cooperative crashes while holding (see Lock_service.crash_every),
   with the crash also evicting the domain's cache-validity bits so the
   per-recovery RMR is the cold-cache figure the closed forms and the
   simulated sweep predict.  The RMR columns are deterministic (the
   recovery re-entry is a fixed access sequence and the eviction makes
   each distinct register remote exactly once); the latency columns are
   wall-clock and recorded for the record only. *)
type rec_entry = {
  re_name : string;
  re_domains : int;
  re_crash_every : int;
  re_rounds : int;
  re_r : Lock_service.result;
  re_predicted_rmr_held : int;  (* rec_registers_held: the closed form *)
}

let run_recoverable (module A : Mutex_intf.ALG) ~domains ~rounds =
  let config =
    { Lock_service.domains; rounds; mean_think = 0; cs_len = 3; seed = 42;
      crash_every = 4 }
  in
  let r = Lock_service.run (module A) config in
  if not r.Lock_service.exclusion_ok then begin
    Printf.eprintf "mutual exclusion violated under crashes: %s domains=%d\n"
      A.name domains;
    exit 1
  end;
  let forms = Option.get (A.recovery (Mutex_intf.params (max 2 domains))) in
  Printf.printf
    "%-18s d=%d crashes=%-4d rec p50=%-7.0f p99=%-7.0f rec rmr mean=%.2f \
     max=%d (predicted %d)\n%!"
    A.name domains r.Lock_service.recoveries r.Lock_service.recovery_p50_ns
    r.Lock_service.recovery_p99_ns r.Lock_service.recovery_rmr_mean
    r.Lock_service.recovery_rmr_max forms.Mutex_intf.rec_registers_held;
  { re_name = A.name; re_domains = domains; re_crash_every = 4;
    re_rounds = rounds; re_r = r;
    re_predicted_rmr_held = forms.Mutex_intf.rec_registers_held }

(* Gated: an exclusion_ok flip under crash injection, growth of the
   cold-cache recovery RMR, or a change of the closed form itself.  The
   recovery count depends on the interleaving, like the latencies. *)
let rec_columns =
  let open Cfc_base.Record in
  [ col "name" Key (fun e -> Str e.re_name);
    col "domains" Key (fun e -> Int e.re_domains);
    col "crash_every" Key (fun e -> Int e.re_crash_every);
    col "rounds" Note (fun e -> Int e.re_rounds);
    col "recoveries" Wall (fun e -> Int e.re_r.Lock_service.recoveries);
    fcol ~decimals:1 "recovery_p50_ns" Wall
      (fun e -> Float e.re_r.Lock_service.recovery_p50_ns);
    fcol ~decimals:1 "recovery_p99_ns" Wall
      (fun e -> Float e.re_r.Lock_service.recovery_p99_ns);
    col "recovery_max_ns" Wall
      (fun e -> Int e.re_r.Lock_service.recovery_max_ns);
    fcol ~decimals:4 "recovery_rmr_mean" Note
      (fun e -> Float e.re_r.Lock_service.recovery_rmr_mean);
    col "recovery_rmr_max" No_growth
      (fun e -> Int e.re_r.Lock_service.recovery_rmr_max);
    col "predicted_rmr_held" Exact (fun e -> Int e.re_predicted_rmr_held);
    col "exclusion_ok" No_drop
      (fun e -> Bool e.re_r.Lock_service.exclusion_ok) ]

(* The symbolic analyzer's prediction of the same distinction, from the
   access graph alone (no execution under contention): a register spun
   on inside a busy-wait cycle that other processes write only in
   straight-line code is bounded-RMR (local-spin); one written inside
   another process's cycle is not.  Recorded next to the measurement so
   the static-vs-measured comparison accumulates across runs. *)
let static_style name =
  match Registry.find name with
  | None -> "unknown"
  | Some alg -> (
    match Cfc_analysis.Subjects.of_mutex ~n:2 alg with
    | None -> "unknown"
    | Some subject ->
      Cfc_analysis.Analyze.(
        spin_class_name (analyze subject).spin_class))

(* Spin-style classification from the measurements themselves: an
   algorithm spins locally iff saturating it leaves rmr/acq within a
   small factor of its solo cost. *)
let classify entries =
  let find ~name ~domains ~think =
    List.find_opt
      (fun e -> e.name = name && e.domains = domains && e.mean_think = think)
      entries
  in
  let names = List.sort_uniq compare (List.map (fun e -> e.name) entries) in
  let max_domains =
    List.fold_left (fun m e -> max m e.domains) 1 entries
  in
  let min_think =
    List.fold_left (fun m e -> min m e.mean_think) max_int entries
  in
  Printf.printf "\n%-18s %10s %10s  %-15s %s\n" "algorithm" "solo rmr"
    "sat rmr" "measured" "static";
  List.filter_map
    (fun name ->
      match
        (find ~name ~domains:1 ~think:min_think,
         find ~name ~domains:max_domains ~think:min_think)
      with
      | Some solo, Some sat ->
        let s = solo.r.Lock_service.rmr_per_acq
        and c = sat.r.Lock_service.rmr_per_acq in
        let style = if c <= (4.0 *. s) +. 2.0 then "local-spin" else
            "spin-on-shared" in
        let static = static_style name in
        Printf.printf "%-18s %10.2f %10.2f  %-15s %s\n" name s c style static;
        Some (name, s, c, style, static)
      | _ -> None)
    names

let () =
  let quick = Array.exists (( = ) "--quick") Sys.argv in
  let domain_counts, thinks, rounds =
    if quick then ([ 1; 2 ], [ 0; 10 ], 200) else ([ 1; 2; 4 ], [ 0; 20 ], 2_000)
  in
  let cs_len = 3 in
  let entries =
    List.concat_map
      (fun (module A : Mutex_intf.ALG) ->
        List.concat_map
          (fun domains ->
            if A.supports (Mutex_intf.params (max 2 domains)) then
              List.map
                (fun mean_think ->
                  run_one (module A) ~domains ~mean_think ~rounds ~cs_len)
                thinks
            else [])
          domain_counts)
      Registry.all
  in
  print_newline ();
  let rec_entries =
    List.concat_map
      (fun ((module A : Mutex_intf.ALG) as alg) ->
        List.filter_map
          (fun domains ->
            if A.supports (Mutex_intf.params (max 2 domains)) then
              Some (run_recoverable alg ~domains ~rounds)
            else None)
          domain_counts)
      Registry.recoverable
  in
  let styles = classify entries in
  (* [style] is classified from the measured RMR, so it moves with the
     host like the figures it comes from. *)
  let style_columns =
    let open Cfc_base.Record in
    [ col "name" Key (fun (name, _, _, _, _) -> Str name);
      fcol ~decimals:4 "solo_rmr_per_acq" Wall (fun (_, s, _, _, _) -> Float s);
      fcol ~decimals:4 "saturated_rmr_per_acq" Wall
        (fun (_, _, c, _, _) -> Float c);
      col "style" Wall (fun (_, _, _, style, _) -> Str style);
      col "static_style" Note (fun (_, _, _, _, static) -> Str static) ]
  in
  Cfc_base.Record.(
    write "BENCH_native.json"
      { bench = "native"; sweep = (if quick then "quick" else "full");
        tables =
          [ table "entries" entry_columns entries;
            table "spin_styles" style_columns styles;
            table "recoverable" rec_columns rec_entries ] });
  Printf.printf "\nwrote BENCH_native.json (%d entries, %d recoverable)\n"
    (List.length entries) (List.length rec_entries)
