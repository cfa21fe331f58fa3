(* EXP-SCALE bench: the O(active-set) event-wheel rig at scale.

   Two sweeps, both deterministic in the seed and written to
   BENCH_scale.json (same accumulate-across-PRs idea as the native and
   mcheck benches):

   - CF curve: every supporting registry algorithm measured by the
     streaming harness (Wheel + Measures.Online, no trace) over
     n = 2^3 .. 2^16, plus n = 10^5 for the O(log n)/O(1) locks — each
     point checked against the registered closed forms.  A mismatch is
     an exit-1 failure: the closed forms are the paper's tables.

   - Chaos curve: the Jepsen-in-one-process rig — thousands of
     crash-recovering clients against one recoverable lock, seeded
     Fault.chaos, streamed Online measures + recoverable exclusion
     monitor.  The same config is re-run once to assert bit-for-bit
     determinism of the result record.

   Each column of the record declares how scripts/bench_diff.py
   compares it (Workload_report.scale_cf_columns and
   scale_chaos_columns); wall-clock columns are never compared. *)

open Cfc_mutex
open Cfc_workload

let ns_full = [ 8; 16; 64; 256; 1024; 4096; 16384; 65536 ]
let ns_quick = [ 8; 16; 256; 4096 ]

(* The locks whose solo path is O(log n) or O(1): these carry the
   headline n = 10^5 point (the O(n)-CF locks would only make it slow,
   their curves are already pinned by 2^16). *)
let big_n = 100_000
let big_algs =
  [ Registry.tree; Registry.peterson_tournament; Registry.tas_lock;
    Registry.mcs ]

let cf_sweep ~quick =
  let ns = if quick then ns_quick else ns_full in
  let points =
    List.concat_map
      (fun alg ->
        let (module A : Mutex_intf.ALG) = alg in
        List.filter_map
          (fun n ->
            if A.supports (Mutex_intf.params n) then Some (alg, n) else None)
          ns)
      Registry.all
    @
    if quick then []
    else List.map (fun alg -> (alg, big_n)) big_algs
  in
  List.map
    (fun (alg, n) ->
      let row = Workload_report.scale_cf_row alg ~n in
      Printf.printf "%-24s n=%-7d cf=%-6d pred=%-6s regs=%-6d %-8s %.3fs\n%!"
        row.Workload_report.scf_alg n
        row.Workload_report.scf_sample.Cfc_core.Measures.steps
        (match row.Workload_report.scf_predicted_steps with
        | Some v -> string_of_int v
        | None -> "-")
        row.Workload_report.scf_sample.Cfc_core.Measures.registers
        (if row.Workload_report.scf_ok then "ok" else "MISMATCH")
        row.Workload_report.scf_wall_s;
      row)
    points

(* Chaos configs are identical in quick and full mode: the wheel makes
   them cheap (sleeping clients cost nothing), and identical keys are
   what lets bench_diff compare the quick CI run against the committed
   full run row by row. *)
let chaos_configs =
  [ ( Registry.rec_tas,
      { Workload.sc_n = 2048; sc_rounds = 2; sc_mean_think = 8192;
        sc_cs_len = 3; sc_seed = 42; sc_chaos_pairs = 2048 } );
    ( Registry.rec_queue,
      { Workload.sc_n = 12; sc_rounds = 2; sc_mean_think = 64;
        sc_cs_len = 3; sc_seed = 42; sc_chaos_pairs = 8 } ) ]

let chaos_sweep () =
  List.map
    (fun (alg, sc) ->
      let row = Workload_report.scale_chaos_row alg sc in
      let r = row.Workload_report.sch_result in
      Printf.printf
        "%-24s n=%-7d pairs=%-5d acq=%-6d crash=%-5d rec=%-5d entrymax=%-4d \
         rmrmax=%-4d live=%-4d %.3fs\n%!"
        row.Workload_report.sch_alg row.Workload_report.sch_n
        row.Workload_report.sch_pairs r.Workload.sr_acquisitions
        r.Workload.sr_crashes r.Workload.sr_recoveries
        r.Workload.sr_entry_steps_max r.Workload.sr_recovery_rmr_max
        r.Workload.sr_live_peak row.Workload_report.sch_wall_s;
      row)
    chaos_configs

(* Same seed, same config: the whole result record must be identical —
   the determinism claim of DESIGN.md's event-wheel row, asserted on a
   real crash-recovery run every time the bench runs. *)
let determinism_check () =
  let alg, sc = List.nth chaos_configs 1 in
  let a = Workload.run_mutex_scale alg sc in
  let b = Workload.run_mutex_scale alg sc in
  a = b

let () =
  let quick = Array.exists (( = ) "--quick") Sys.argv in
  print_endline "== EXP-SCALE: streaming CF vs closed forms ==";
  let cf = cf_sweep ~quick in
  print_endline "== EXP-SCALE: chaos rig (crash-recovering clients) ==";
  let chaos = chaos_sweep () in
  let det = determinism_check () in
  Printf.printf "determinism: %s\n%!" (if det then "ok" else "DIVERGED");
  Cfc_base.Record.(
    write "BENCH_scale.json"
      { bench = "scale"; sweep = (if quick then "quick" else "full");
        tables =
          [ table "cf_entries" Workload_report.scale_cf_columns cf;
            table "chaos_entries" Workload_report.scale_chaos_columns chaos;
            table "summary"
              [ col "determinism_ok" No_drop (fun d -> Bool d) ]
              [ det ] ] });
  Printf.printf "wrote BENCH_scale.json (%d cf rows, %d chaos rows)\n%!"
    (List.length cf) (List.length chaos);
  let bad = List.filter (fun r -> not r.Workload_report.scf_ok) cf in
  List.iter
    (fun r ->
      Printf.eprintf "closed-form mismatch: %s n=%d\n"
        r.Workload_report.scf_alg r.Workload_report.scf_n)
    bad;
  if bad <> [] || not det then exit 1
