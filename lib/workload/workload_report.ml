(** The §4 backoff experiment rendered as a table — shared by the bench
    harness and the [cfc-tables backoff] subcommand. *)

open Cfc_base
open Cfc_mutex
open Cfc_core

let backoff_table () =
  let n = 6 and rounds = 50 and thinks = [ 0; 5; 40; 200 ] and seed = 11 in
  let t =
    Texttab.create
      ~header:[ "algorithm"; "mean think"; "observed contention";
                "winner entry mean"; "winner entry max"; "cf cost";
                "total traffic" ]
  in
  List.iter
    (fun alg ->
      let (module A : Mutex_intf.ALG) = alg in
      List.iter
        (fun (think, r) ->
          Texttab.add_row t
            [ A.name; string_of_int think;
              Printf.sprintf "%.2f" r.Workload.observed_contention;
              Printf.sprintf "%.2f" r.Workload.entry_steps_mean;
              string_of_int r.Workload.entry_steps_max;
              string_of_int r.Workload.cf_steps;
              string_of_int r.Workload.total_steps ])
        (Workload.contention_sweep alg ~n ~rounds ~thinks ~seed);
      Texttab.add_sep t)
    [ Registry.lamport_fast; Registry.backoff; Registry.bakery ];
  t

(* ------------------------------------------------------------------ *)
(* EXP-SCALE rows: shared by bench/scale_bench and [cfc-tables scale]. *)

type scale_cf_row = {
  scf_alg : string;
  scf_n : int;
  scf_sample : Measures.sample;
  scf_predicted_steps : int option;
  scf_predicted_registers : int option;
  scf_ok : bool;
  scf_wall_s : float;
}

let scale_cf_row alg ~n =
  let (module A : Mutex_intf.ALG) = alg in
  let p = Mutex_intf.params n in
  let t0 = Sys.time () in (* lint-allow: wall-clock — timing the run itself *)
  let cf = Mutex_harness.contention_free alg p in
  let wall = Sys.time () -. t0 in (* lint-allow: wall-clock — timing the run itself *)
  let s = cf.Mutex_harness.max in
  let ps = A.predicted_cf_steps p and pr = A.predicted_cf_registers p in
  let ok_of pred v = match pred with None -> true | Some x -> x = v in
  {
    scf_alg = A.name;
    scf_n = n;
    scf_sample = s;
    scf_predicted_steps = ps;
    scf_predicted_registers = pr;
    scf_ok = ok_of ps s.Measures.steps && ok_of pr s.Measures.registers;
    scf_wall_s = wall;
  }

type scale_chaos_row = {
  sch_alg : string;
  sch_n : int;
  sch_pairs : int;
  sch_result : Workload.scale_result;
  sch_wall_s : float;
}

let scale_chaos_row ?max_turns alg (sc : Workload.scale_config) =
  let (module A : Mutex_intf.ALG) = alg in
  let t0 = Sys.time () in (* lint-allow: wall-clock — timing the run itself *)
  let r = Workload.run_mutex_scale ?max_turns alg sc in
  let wall = Sys.time () -. t0 in (* lint-allow: wall-clock — timing the run itself *)
  {
    sch_alg = A.name;
    sch_n = sc.Workload.sc_n;
    sch_pairs = sc.Workload.sc_chaos_pairs;
    sch_result = r;
    sch_wall_s = wall;
  }

let opt_pred = function None -> "-" | Some v -> string_of_int v

let scale_cf_table rows =
  let t =
    Texttab.create
      ~header:[ "algorithm"; "n"; "cf steps"; "predicted"; "cf registers";
                "predicted"; "ok"; "wall s" ]
  in
  List.iter
    (fun r ->
      Texttab.add_row t
        [ r.scf_alg; string_of_int r.scf_n;
          string_of_int r.scf_sample.Measures.steps;
          opt_pred r.scf_predicted_steps;
          string_of_int r.scf_sample.Measures.registers;
          opt_pred r.scf_predicted_registers;
          (if r.scf_ok then "ok" else "MISMATCH");
          Printf.sprintf "%.3f" r.scf_wall_s ])
    rows;
  t

let scale_chaos_table rows =
  let t =
    Texttab.create
      ~header:[ "algorithm"; "n"; "pairs"; "acquisitions"; "crashes";
                "recoveries"; "entry max"; "rec steps max"; "rec rmr max";
                "events"; "spawned"; "live peak"; "wall s" ]
  in
  List.iter
    (fun row ->
      let r = row.sch_result in
      Texttab.add_row t
        [ row.sch_alg; string_of_int row.sch_n; string_of_int row.sch_pairs;
          string_of_int r.Workload.sr_acquisitions;
          string_of_int r.Workload.sr_crashes;
          string_of_int r.Workload.sr_recoveries;
          string_of_int r.Workload.sr_entry_steps_max;
          string_of_int r.Workload.sr_recovery_steps_max;
          string_of_int r.Workload.sr_recovery_rmr_max;
          string_of_int r.Workload.sr_events;
          string_of_int r.Workload.sr_spawned;
          string_of_int r.Workload.sr_live_peak;
          Printf.sprintf "%.3f" row.sch_wall_s ])
    rows;
  t

(* A closed-form mismatch, any move of the solo path itself, and growth
   of the chaos entry or recovery-RMR maxima fail the diff gate; the
   other counts are deterministic too and reported when they move. *)
let scale_cf_columns =
  let open Record in
  let sample f r = Int (f r.scf_sample) in
  let opt = function None -> Null | Some v -> Int v in
  [ col "name" Key (fun r -> Str r.scf_alg);
    col "n" Key (fun r -> Int r.scf_n);
    col "cf_steps" Exact (sample (fun s -> s.Measures.steps));
    col "cf_registers" Exact (sample (fun s -> s.Measures.registers));
    col "cf_reads" Note (sample (fun s -> s.Measures.read_steps));
    col "cf_writes" Note (sample (fun s -> s.Measures.write_steps));
    col "predicted_steps" Note (fun r -> opt r.scf_predicted_steps);
    col "predicted_registers" Note (fun r -> opt r.scf_predicted_registers);
    col "ok" No_drop (fun r -> Bool r.scf_ok);
    fcol ~decimals:4 "wall_s" Wall (fun r -> Float r.scf_wall_s) ]

let scale_chaos_columns =
  let open Record in
  let res f row = Int (f row.sch_result) in
  [ col "name" Key (fun row -> Str row.sch_alg);
    col "n" Key (fun row -> Int row.sch_n);
    col "pairs" Note (fun row -> Int row.sch_pairs);
    col "acquisitions" Note (res (fun r -> r.Workload.sr_acquisitions));
    col "crashes" Note (res (fun r -> r.Workload.sr_crashes));
    col "recoveries" Note (res (fun r -> r.Workload.sr_recoveries));
    col "entry_steps_max" No_growth
      (res (fun r -> r.Workload.sr_entry_steps_max));
    fcol ~decimals:4 "entry_steps_mean" Note (fun row ->
        Float row.sch_result.Workload.sr_entry_steps_mean);
    col "recovery_steps_max" Note
      (res (fun r -> r.Workload.sr_recovery_steps_max));
    col "recovery_rmr_max" No_growth
      (res (fun r -> r.Workload.sr_recovery_rmr_max));
    col "events" Note (res (fun r -> r.Workload.sr_events));
    col "turns" Note (res (fun r -> r.Workload.sr_turns));
    col "total_steps" Note (res (fun r -> r.Workload.sr_total_steps));
    col "spawned" Note (res (fun r -> r.Workload.sr_spawned));
    col "live_peak" Note (res (fun r -> r.Workload.sr_live_peak));
    fcol ~decimals:4 "wall_s" Wall (fun row -> Float row.sch_wall_s) ]
