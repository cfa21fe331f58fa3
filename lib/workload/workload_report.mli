(** The §4 backoff experiment rendered as a table — shared by the bench
    harness and the [cfc-tables backoff] subcommand. *)

val backoff_table : unit -> Cfc_base.Texttab.t
(** EXP-BACKOFF's one parameter set: lamport-fast, lamport-fast+backoff
    and bakery at [n = 6], 50 rounds, mean thinks 0, 5, 40 and 200,
    seed 11, one {!Workload.run_mutex} per row. *)

(** {2 EXP-SCALE rows}

    Shared by [bench/scale_bench] and the [cfc-tables scale]
    subcommand: one row per (algorithm, n) with the streaming
    contention-free measurement checked against the registered closed
    forms, and one row per chaos run of the Jepsen-in-one-process rig.
    Wall-clock fields are recorded, never compared. *)

type scale_cf_row = {
  scf_alg : string;
  scf_n : int;
  scf_sample : Cfc_core.Measures.sample;
      (** componentwise max over the sampled pids *)
  scf_predicted_steps : int option;  (** the registered closed form *)
  scf_predicted_registers : int option;
  scf_ok : bool;
      (** every present closed form matched exactly (absent forms pass) *)
  scf_wall_s : float;
}

val scale_cf_row : Cfc_mutex.Registry.alg -> n:int -> scale_cf_row
(** One {!Cfc_core.Mutex_harness.contention_free} measurement
    at [n], compared against [predicted_cf_steps]/[predicted_cf_registers].
    Raises like the harness on unsupported parameters. *)

type scale_chaos_row = {
  sch_alg : string;
  sch_n : int;
  sch_pairs : int;
  sch_result : Workload.scale_result;
  sch_wall_s : float;
}

val scale_chaos_row :
  ?max_turns:int -> Cfc_mutex.Registry.alg -> Workload.scale_config ->
  scale_chaos_row
(** One {!Workload.run_mutex_scale} chaos run, timed. *)

val scale_cf_table : scale_cf_row list -> Cfc_base.Texttab.t
val scale_chaos_table : scale_chaos_row list -> Cfc_base.Texttab.t

val scale_cf_columns : scale_cf_row Cfc_base.Record.column list
val scale_chaos_columns : scale_chaos_row Cfc_base.Record.column list
(** The [cf_entries] and [chaos_entries] tables of a scale record, with
    their diff policies ([wall_s] is never compared; see
    [scripts/bench_diff.py]). *)
