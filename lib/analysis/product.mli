(** Pairwise product passes over the per-process access graphs.

    {!Analyze} executes every variant {e solo}, so its report certifies
    contention-free facts but is structurally blind to anything that only
    manifests when two processes run together.  This module closes that
    gap with a bounded product construction over the already-extracted
    graphs: every pair of distinct-process variants is overlaid
    register-by-register, yielding three static passes per subject.

    {b 1. Race classification.}  Every pair of accesses by two different
    processes to the same register is enumerated and classified.  Pairs
    discharged by the protocol itself — registers accessed only inside
    the mutual-exclusion region, statically the harness's
    critical-section witness (see DESIGN.md §2) — are [Protected];
    read/read overlaps, writes that provably store one common value, and
    CAS accesses that never succeed on any explored path are benign;
    everything else is a [Sync] race (the synchronization idiom the
    algorithm is built from — its register-semantics demand is what pass
    3 reports) unless pass 2 corroborates actual harm, which promotes it
    to [Harmful] with both access paths.

    {b 2. Spin-wakeup / liveness skeleton.}  For every busy-wait cycle
    {!Analyze} detected, the set of remote writes that can break it: a
    write by another process that can store a value outside the set the
    spin was observed rejecting.  A breaking write is {e suppressible}
    when it is guarded by an observation of a register that two processes
    blind-write with different values on their contention-free paths —
    overwriting that register can steer the writer onto a completed path
    that never performs the wake-up (the lost-wakeup shape).  A spin all
    of whose breaking writes are suppressible makes the subject
    [Deadlock_risk] and promotes the guard races to [Harmful]; otherwise
    the verdict follows the {!Analyze.spin_class}: no spins is
    wait-free, per-process spin registers bound bypass (the handoff
    shape) and yield [Starvation_free_candidate], spinning on a register
    written inside another process's cycle admits unbounded bypass and
    yields [Deadlock_free_candidate].

    {b 3. Weaker-register sensitivity.}  Per register: if no read by one
    process can overlap a write by another, safe registers suffice; if
    reads overlap the writes of a single writing process, regular
    registers suffice; otherwise atomic semantics are required — the
    prediction table ROADMAP item 3's checker is to confirm against the
    Just-Verification results. *)

type verdict =
  | Protected  (** discharged by the mutual-exclusion region *)
  | Read_read
  | Same_value_write  (** all writers provably store one common value *)
  | Failed_cas  (** a CAS that never succeeds on any explored path *)
  | Sync  (** the protocol's own synchronization race *)
  | Harmful  (** corroborated by the lost-wakeup analysis of pass 2 *)

val verdict_name : verdict -> string

(** One side of a race: the merged accesses of one process group on the
    raced register, with a representative control-flow path. *)
type party = {
  p_group : string;  (** process label, e.g. ["p0"] *)
  p_class : string;  (** {!Analyze.op_class} *)
  p_writes : bool;
  p_values : int list option;
      (** stored values when statically exact, [None] when unknown *)
  p_path : string;  (** rendered entry→access path *)
}

type race = {
  r_reg : int;
  r_name : string;
  r_left : party;
  r_right : party;
  r_verdict : verdict;
  r_note : string;  (** non-empty for [Harmful]: the corroboration *)
}

(** One spin cycle and its wake-up budget. *)
type wakeup = {
  w_spinner : string;  (** process label of the spinning variant *)
  w_reg : int;
  w_name : string;  (** spun-on register *)
  w_writers : string list;
      (** process labels owning a breaking write (can store a value the
          spin does not accept) *)
  w_suppressible : bool;
      (** every breaking write is guarded by a volatile register — the
          wake-up can be lost *)
}

type liveness =
  | Starvation_free_candidate
  | Deadlock_free_candidate
  | Deadlock_risk
  | Unknown_liveness

val liveness_name : liveness -> string

type semantics = Safe_ok | Regular_ok | Atomic_required

val semantics_name : semantics -> string

type reg_verdict = {
  g_reg : int;
  g_name : string;
  g_width : int;
  g_readers : string list;  (** process groups observing the register *)
  g_writers : string list;  (** process groups writing it *)
  g_semantics : semantics;
}

type t = {
  report : Analyze.report;
  concurrent : bool;
      (** variants model concurrently running processes (false for the
          naming family, whose variants are sequential positions — no
          product is taken and every register tolerates safe
          semantics) *)
  races : race list;  (** every cross-process pair, all verdicts *)
  wakeups : wakeup list;
  liveness : liveness;
  registers : reg_verdict list;
}

val of_report : ?config:Analyze.config -> Analyze.report -> t
(** [config] must be the one the report was analyzed under (used to
    detect truncated explorations, which force [Unknown_liveness]). *)

val harmful : t -> race list

val has_pair : t -> reg:int -> cls_a:string -> cls_b:string -> bool
(** Does the race set contain a pair on [reg] whose two operation
    classes are [{cls_a, cls_b}] (unordered)?  The coverage query the
    model-checker suite uses to pin the static race set against the
    dynamic conflicts observed at n=2. *)

val print : t -> unit
(** Render the three passes as tables on stdout. *)
