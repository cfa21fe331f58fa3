(** Uniform packaging of every registered algorithm, of every family, as
    an analysis subject: the solo executions the contention-free
    definitions quantify over (per-pid for mutex/detection/consensus/
    renaming, per-sequential-position for naming, matching each
    harness), plus the declared closed forms and a hook to the harness's
    trace-measured value — so the three-way agreement
    static = closed form = measured is checked against the very same
    run population. *)

open Cfc_base

type family = Mutex | Detector | Naming | Consensus | Renaming

val family_name : family -> string

(** One solo execution: [context] runs are executed concretely and
    unrecorded (the completed predecessors of the §3.2 sequential-run
    measure — empty for the fresh-state families), then [body] is the
    measured execution. *)
type solo = { context : (unit -> unit) list; body : unit -> unit }

type variant = {
  v_label : string;
  make : Mem_intf.mem -> solo;
      (** Allocates a fresh instance on the given backend; called once
          per re-execution, so paths never share state. *)
}

type t = {
  family : family;
  alg_name : string;
  config : string;  (** e.g. ["n=8"] — display label for the table *)
  n : int;
  declared_atomicity : int option;
      (** the algorithm's [atomicity] (mutex/detectors), [1] for the
          bit-model families, [None] where the interface declares none *)
  predicted_steps : int option;
  predicted_registers : int option;
  variants : variant list;
  measured : unit -> Cfc_core.Measures.sample;
      (** the harness's trace-measured contention-free max *)
}

(** Builders return [None] when the algorithm does not support the
    parameters. *)

val of_mutex : ?l:int -> n:int -> Cfc_mutex.Registry.alg -> t option

val of_mutex_checked : ?l:int -> n:int -> Cfc_mutex.Registry.alg -> t option
(** Like {!of_mutex}, but the solo mirrors the system
    [Mutex_harness.instantiate] actually model-checks: a critical-section
    witness register is allocated after the algorithm instance (so
    register ids align with the checked arena) and written/verified
    between [lock] and [unlock].  Use this — not {!of_mutex} — when
    deriving static facts (footprints, independence) about the checked
    system; its baseline measures include the witness accesses and must
    not be compared against the §2.2 closed forms. *)

val of_mutex_recovery :
  held:bool -> n:int -> Cfc_mutex.Registry.alg -> t option
(** The recovery path as a static subject, for recoverable locks
    ([None] when [A.recovery] is [None]).  The unrecorded [context]
    reproduces the shared state a crashed incarnation leaves behind —
    a completed [lock] for [held:true], a completed [lock]; [unlock]
    cycle for [held:false] — and the measured [body] is the restarted
    incarnation's [lock] re-entry, exactly what the Golab–Ramaraju
    model re-runs after a crash.  [predicted_steps]/[predicted_registers]
    are the algorithm's [recovery] closed forms for that crash mode, and
    [measured] is the componentwise max over the matching
    {!Cfc_core.Recovery_harness.solo_sweep} points (crashes in
    [Critical] for [held], in [Trying]/[Remainder] for [not-held]) — so
    the battery's three-way agreement covers recovery paths too.  The
    register count doubles as the static recovery RMR: the restarted
    incarnation's cache is cold, so each distinct register on the solo
    recovery path costs exactly one remote reference. *)

val of_detector : n:int -> Cfc_mutex.Registry.detector -> t option
val of_naming : n:int -> Cfc_naming.Registry.alg -> t option
val of_consensus : n:int -> Cfc_consensus.Registry.alg -> t option
val of_renaming : n:int -> Cfc_renaming.Registry.alg -> t

val registry : unit -> t list
(** The standard battery: every algorithm of every family registry
    (including the deliberately broken consensus constructions, which
    are contention-free-sound) at the standard analysis sizes
    (n ∈ {2, 8} for mutex/detectors, {2, 4, 8} for naming, consensus at
    its [n_max], renaming at n ∈ {2, 4}), plus both recovery subjects
    ({!of_mutex_recovery}) for every recoverable lock at n ∈ {2, 8}. *)
