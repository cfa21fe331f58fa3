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

(* The simulated twin of a solo lock-service run: same n=2 instance, same
   rounds and critical-section writes, process 0 alone on the schedule.
   Its YA93 remote-access count is the ground truth the instrumented
   counter must reproduce. *)
let sim_solo_rmr (module A : Mutex_intf.ALG) ~rounds ~cs_len =
  let p = Mutex_intf.params 2 in
  let memory = Memory.create () in
  let module M = (val Sim_mem.mem memory) in
  let module L = A.Make (M) in
  let inst = L.create p in
  let scratch = M.alloc ~name:"svc.scratch" ~width:8 ~init:0 () in
  let proc0 () =
    for _ = 1 to rounds do
      L.lock inst ~me:0;
      for k = 1 to cs_len do
        M.write scratch (k land 255)
      done;
      L.unlock inst ~me:0
    done
  in
  let procs = [| proc0; (fun () -> ()) |] in
  let out = Runner.run ~memory ~pick:(Schedule.solo 0) procs in
  let online = Cfc_core.Measures.Online.of_trace ~nprocs:2 out.Runner.trace in
  float_of_int (Cfc_core.Measures.Online.remote online ~pid:0)
  /. float_of_int (max 1 rounds)

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

let json_of_entry e =
  let c = e.r.Lock_service.counters in
  Printf.sprintf
    "    {\"name\": %S, \"domains\": %d, \"mean_think\": %d, \"rounds\": %d, \
     \"cs_len\": %d, \"acquisitions\": %d, \"elapsed_ns\": %d, \
     \"throughput\": %.1f, \"p50_ns\": %.1f, \"p90_ns\": %.1f, \
     \"p99_ns\": %.1f, \"max_ns\": %d, \"ops\": %d, \"reads\": %d, \
     \"writes\": %d, \"cas_attempts\": %d, \"cas_failures\": %d, \
     \"rmr\": %d, \"rmr_per_acq\": %.4f%s, \"exclusion_ok\": %b}"
    e.name e.domains e.mean_think e.rounds e.cs_len
    e.r.Lock_service.acquisitions e.r.Lock_service.elapsed_ns
    e.r.Lock_service.throughput e.r.Lock_service.p50_ns
    e.r.Lock_service.p90_ns e.r.Lock_service.p99_ns e.r.Lock_service.max_ns
    c.Instr_mem.ops c.Instr_mem.reads c.Instr_mem.writes
    c.Instr_mem.cas_attempts c.Instr_mem.cas_failures c.Instr_mem.rmr
    e.r.Lock_service.rmr_per_acq
    (match e.sim_rmr_per_acq with
    | Some s -> Printf.sprintf ", \"sim_rmr_per_acq\": %.4f" s
    | None -> "")
    e.r.Lock_service.exclusion_ok

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

let json_of_rec_entry e =
  Printf.sprintf
    "    {\"name\": %S, \"domains\": %d, \"crash_every\": %d, \
     \"rounds\": %d, \"recoveries\": %d, \"recovery_p50_ns\": %.1f, \
     \"recovery_p99_ns\": %.1f, \"recovery_max_ns\": %d, \
     \"recovery_rmr_mean\": %.4f, \"recovery_rmr_max\": %d, \
     \"predicted_rmr_held\": %d, \"exclusion_ok\": %b}"
    e.re_name e.re_domains e.re_crash_every e.re_rounds
    e.re_r.Lock_service.recoveries e.re_r.Lock_service.recovery_p50_ns
    e.re_r.Lock_service.recovery_p99_ns e.re_r.Lock_service.recovery_max_ns
    e.re_r.Lock_service.recovery_rmr_mean
    e.re_r.Lock_service.recovery_rmr_max e.re_predicted_rmr_held
    e.re_r.Lock_service.exclusion_ok

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
  let json_styles =
    String.concat ",\n"
      (List.map
         (fun (name, solo, sat, style, static) ->
           Printf.sprintf
             "    {\"name\": %S, \"solo_rmr_per_acq\": %.4f, \
              \"saturated_rmr_per_acq\": %.4f, \"style\": %S, \
              \"static_style\": %S}"
             name solo sat style static)
         styles)
  in
  let oc = open_out "BENCH_native.json" in
  Printf.fprintf oc
    "{\n  \"schema\": \"cfc-native-bench/2\",\n  \"quick\": %b,\n  \
     \"entries\": [\n%s\n  ],\n  \"spin_styles\": [\n%s\n  ],\n  \
     \"recoverable\": [\n%s\n  ]\n}\n"
    quick
    (String.concat ",\n" (List.map json_of_entry entries))
    json_styles
    (String.concat ",\n" (List.map json_of_rec_entry rec_entries));
  close_out oc;
  Printf.printf "\nwrote BENCH_native.json (%d entries, %d recoverable)\n"
    (List.length entries) (List.length rec_entries)
