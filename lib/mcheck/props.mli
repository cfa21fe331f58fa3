(** Ready-made model-checking problems: systems (from the core harnesses)
    paired with the safety property the paper requires of them.  Every
    checker supplies the incremental form of its property
    ({!Cfc_core.Spec.Inc}), so the search pays O(new events) per node
    instead of a whole-trace rescan;
    [symmetry]/[engine]/[compact]/[independence]/[seen_hint] are
    forwarded to {!Explore.run}/{!Explore.run_faults} — pass
    [independence] (from {!Independence.mutex} /
    {!Independence.detector}) to enable the partial-order reduction, and
    [symmetry] (from {!Symmetry.mutex}) to canonicalise memo keys under
    the admissible pid permutations; the two reductions compose.
    Consensus, renaming and naming take no [independence]: no
    ready-made constructor builds their hint yet (use {!Explore.run}
    with {!Independence.of_report} directly if needed). *)

val check_mutex :
  ?config:Explore.config -> ?symmetry:Symmetry.t -> ?engine:Explore.engine ->
  ?compact:bool -> ?independence:Independence.t -> ?seen_hint:int ->
  ?observe_access:
    (pid:int ->
    reg:Cfc_runtime.Register.t ->
    kind:Cfc_runtime.Event.access_kind ->
    unit) ->
  ?rounds:int -> Cfc_mutex.Registry.alg ->
  Cfc_mutex.Mutex_intf.params -> Explore.result
(** Exhaustively (within bounds) verify mutual exclusion — including the
    critical-section witness register — for the given algorithm and
    parameters.  [observe_access] (see {!Explore.run}) is the hook the
    {!Conflicts} collector plugs into. *)

val check_mutex_recoverable :
  ?config:Explore.config -> ?symmetry:Symmetry.t -> ?engine:Explore.engine ->
  ?compact:bool -> ?independence:Independence.t -> ?seen_hint:int ->
  ?pairs:int -> ?rounds:int ->
  Cfc_mutex.Registry.alg -> Cfc_mutex.Mutex_intf.params ->
  Explore.fault_result
(** Exhaustively (within bounds) verify mutual exclusion under the
    crash–recovery fault model: {!Explore.run_faults} enumerates up to
    [pairs] (default 2) crash–recovery pairs as scheduler choices and the
    property is {!Cfc_core.Spec.mutual_exclusion_recoverable} — a process
    that crashes inside its critical section still occupies it until its
    restarted run re-enters the protocol. *)

val check_detector :
  ?config:Explore.config -> ?symmetry:Symmetry.t -> ?engine:Explore.engine ->
  ?compact:bool -> ?independence:Independence.t -> ?seen_hint:int ->
  Cfc_mutex.Registry.detector ->
  Cfc_mutex.Mutex_intf.params -> Explore.result
(** Verify the at-most-one-winner property of a contention detector. *)

val check_consensus :
  ?config:Explore.config -> ?engine:Explore.engine -> ?compact:bool ->
  ?seen_hint:int ->
  Cfc_consensus.Registry.alg -> n:int ->
  inputs:int array -> Explore.result
(** Verify agreement + validity of a consensus algorithm for the given
    inputs. *)

val check_renaming :
  ?config:Explore.config -> ?engine:Explore.engine -> ?compact:bool ->
  ?seen_hint:int ->
  Cfc_renaming.Registry.alg -> n:int ->
  Explore.result
(** Verify distinct in-range new names (full participation bound). *)

val check_naming :
  ?config:Explore.config -> ?engine:Explore.engine -> ?compact:bool ->
  ?seen_hint:int ->
  ?symmetric:bool -> Cfc_naming.Registry.alg ->
  n:int -> Explore.result
(** Verify unique in-range names.  [symmetric] (default true — naming
    processes are identical by construction) builds the pure
    {!Symmetry.identical} group and enables the canonicalisation-based
    symmetry reduction. *)
