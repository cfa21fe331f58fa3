(** Static independence for partial-order reduction, derived from the
    access graphs of [Cfc_analysis.Analyze].

    Two enabled steps commute when their (register, operation-class)
    footprints are disjoint or overlap read-only; a CAS or write on a
    register the other step touches always conflicts (CAS counts as a
    write even though a failed one records as a read — whether it
    succeeds depends on the interleaving).  The per-process graphs come
    from a {e bounded} symbolic exploration, so they may under-cover a
    process's behavior under contention; the {!tracker} therefore
    follows every process's position in its own graph and permanently
    degrades it to "unknown" (every query answers [None]/conservative)
    the moment an observed access fails to match — from then on the
    exploration treats that process as conflicting with everything.
    End-to-end soundness is anchored the way the engine-equivalence
    suite anchors the search to its reference explorer: reduced and
    unreduced verdicts are asserted identical over the whole registry
    and the broken fixtures, and static independence is
    qcheck-validated against dynamic commutation on live schedulers.

    Models describe the system the checker actually runs: the mutex
    constructor analyzes [Subjects.of_mutex_checked] (the harness arena
    {e with} the critical-section witness register), so footprint bit
    positions equal the checked system's register ids. *)

(** A step footprint: registers possibly read / possibly written, as
    bitmasks over register ids in allocation order. *)
type fp = { f_read : int; f_write : int }

val fp_empty : fp
val fp_union : fp -> fp -> fp

val conflict : fp -> fp -> bool
(** May the two steps fail to commute — some register is written by one
    and touched by the other? *)

val fp_of_access :
  ?changed:bool -> reg:int -> Cfc_runtime.Event.access_kind -> fp
(** Footprint of one executed access (CAS always a write).
    [~changed:false] records that the access is known to have left every
    register value as it was — a failed CAS, an exchange returning the
    value it stored, a re-write of the current value.  Such an access is
    dynamically read-only: reordering it across any step that does not
    change what it read yields the same memory and the same local
    outcome, so its footprint carries no write bit. *)

val class_id : Cfc_runtime.Event.access_kind -> int
(** {!Cfc_analysis.Analyze.op_class} interned as a small int (below
    64): equal ids iff equal class names.  What the tracker matches on;
    allocation-free. *)

type t
(** Per-process static models for one checked system ([None] for a
    process whose graph was unusable: empty, no entry node, or register
    ids beyond bitmask range). *)

val usable : t -> bool
(** At least one process has a model (otherwise the hint is pure
    overhead). *)

val mutex :
  ?config:Cfc_analysis.Analyze.config ->
  Cfc_mutex.Registry.alg ->
  Cfc_mutex.Mutex_intf.params ->
  t option
(** Analyze the checked mutex arena (algorithm + witness register) and
    build the independence hint.  [None] when the algorithm does not
    support the parameters, the analysis fails, or no per-process model
    is usable — callers just omit the hint then. *)

val detector :
  ?config:Cfc_analysis.Analyze.config ->
  Cfc_mutex.Registry.detector ->
  Cfc_mutex.Mutex_intf.params ->
  t option

val of_report : Cfc_analysis.Analyze.report -> t
(** Models straight from an existing analysis report (the report must
    describe the very system being checked — same process bodies, same
    register allocation order). *)

(** {1 Dynamic position tracking}

    Position sets and op classes are interned as ints inside the tracker,
    so once a tracker has met a position and transition, {!observe},
    {!cycle_member}, {!next_fp}, {!future_fp}, {!known} and
    {!next_may_end} allocate nothing.  Each tracker owns its tables: one
    [t] may back any number of trackers. *)

type tracker
type snap

val track : t -> nprocs:int -> tracker
(** Fresh tracker with every process at its graph entry (processes
    beyond the model count are unknown from the start). *)

val observe :
  tracker -> pid:int -> reg:int -> kind:Cfc_runtime.Event.access_kind -> unit
(** Advance [pid] by one executed access.  An access matching no
    candidate node degrades the process to unknown, permanently. *)

val cycle_member :
  tracker -> pid:int -> reg:int -> kind:Cfc_runtime.Event.access_kind -> bool
(** Does the access's (register, op class) appear on a detected
    busy-wait cycle of [pid]'s graph?  Occurrence-independent (the
    dynamic search prunes spin unrolling long before the occurrence
    indices the symbolic engine flagged) — the gate for the spin-history
    canonicalization. *)

val next_fp : tracker -> int -> fp option
(** Union footprint of the process's possible next accesses; [None] if
    unknown. *)

val future_fp : tracker -> int -> fp option
(** Union footprint of everything the process may still access (next
    accesses and their graph closure); [None] if unknown. *)

val known : tracker -> int -> bool
(** Is the process still tracked (not degraded to unknown)?  The
    reduction refuses to build a singleton ample set around an
    unanalyzable process — it falls back to full expansion instead. *)

val next_may_end : tracker -> int -> bool
(** May the process's next access complete its body (and so decide /
    halt / change protocol region)?  [true] when unknown — used as a
    static pre-filter before the dynamic visibility probe. *)

val snapshot : tracker -> snap

val snapshot_into : tracker -> snap -> unit
(** Overwrite a snap taken earlier from the same tracker, allocating
    nothing. *)

val restore : tracker -> snap -> unit

val snapshot_pid_into : tracker -> snap -> int -> unit
val restore_pid : tracker -> snap -> int -> unit
(** One process's position only, for undoing a step of that process. *)
