(** Bounded exhaustive exploration of interleavings.

    One engine: one live (memory, scheduler, trace) per search, extended
    by a single action per node.  Sibling branches are explored by
    checkpoint/undo — a checkpoint stores the register values, the trace
    length, the scheduler's scalar state and the incremental-checker
    state, all O(nprocs + registers), written into a buffer kept per
    search depth rather than allocated per save.  One-shot continuations
    cannot be cloned, so a process whose continuation was consumed by an
    abandoned sibling is rebuilt lazily: its thunk is restarted and
    driven against the observations recorded for it, and every
    register-op failure it caught is raised again at the same call (see
    {!Cfc_runtime.Scheduler.restore}), so a deterministic process
    re-suspends at exactly the same point.

    The {!engine} picks the rollback policy: [Incremental] rebuilds only
    the processes the abandoned sibling touched, [Replay] rebuilds every
    process after every rollback — each node's processes are then
    re-executed from their thunks, as a dscheck-style explorer would,
    but without re-running the scheduler or the checkers.  Both give the
    same verdicts, schedules and stats with every reduction below.  The
    test suite pins them to a reference explorer that builds a fresh
    system for every node.

    The state space is pruned with a soundness-preserving memoization:
    two schedule prefixes that reach the same fingerprint
    ({!State_key.t}: register values plus, per process, its protocol
    region and the observations since its last (re)start, which determine
    the local state of a deterministic process) have identical futures,
    so only the first is expanded.  Spin loops therefore do not blow up
    the search.  The crash count joins the memo key, so pruning stays
    sound across fault branches.

    {b Symmetry reduction} ([symmetry] hint): memo keys
    are canonicalised under the admissible pid permutations before
    lookup (see {!Symmetry}), so states that are pid-renamings of each
    other — registers, register contents and observation histories
    remapped consistently — merge into one orbit representative.
    Because the reduction acts on the key rather than on the candidate
    schedule, it composes with the partial-order reduction (the memo
    payload travels into canonical pid space by the witness permutation)
    and stays on under fault injection.  [pruned_sym] counts prune hits
    whose key the canonicalisation had rewritten.

    {b Partial-order reduction} ([independence] hint): a static
    may-conflict relation between per-process next steps,
    derived from the {!Independence} access-graph models, lets a node
    schedule a single process when its next step provably commutes with
    everything every other live process may still do — the skipped
    interleavings reach the same states modulo commutation.  Three
    guards keep it sound: the chosen step must pass a {e dynamic}
    commutation probe (an exhaustive bounded walk of the others-only
    subsystem from the child state, failing on any value-aware footprint
    conflict with the chosen access — and, when the chosen step changed
    a protocol region, on any reachable other-process region change,
    since region sequences are all the property monitors consume); it
    must not land on a state currently open on the DFS stack (the
    ignoring-problem cycle proviso); and sleeping processes ({e sleep
    sets}: already explored under an earlier sibling after
    commuting) wake as soon as a conflicting access executes.  Under
    reduction the memo stores what each exploration assumed (sleep set
    and per-process step budget) and a revisit re-explores unless
    covered.  States differing only in how many times a process re-read
    an unchanged busy-wait register are merged (spin-period
    canonicalization) — sound under the memoryless-spin reading of
    busy-wait loops the analyzer's cycle detection already assumes
    (DESIGN.md §2).  Reduction is gated off under fault injection
    ([pairs > 0]) and for processes whose dynamic accesses leave their
    static graph (conservative degradation, per process).  The reduced
    and unreduced searches are asserted to agree on every registry
    system and every broken fixture by the test suite.

    {b Compact seen set} ([compact]): the memo
    stores two independent 62-bit fingerprints of each key
    ({!State_key.fingerprint}) instead of the full structural key —
    a large constant-factor memory saving on big sweeps.  A first-lane
    hit whose second lane mismatches is a {e detected} collision
    (counted in [fp_collisions], explored without storing — sound,
    merely slower); wrongly merging two distinct states would need both
    lanes to collide at once (~124 bits).  The exact mode remains the
    default and the tests cross-check compact verdicts against it.

    {!run_faults} additionally enumerates bounded crash–recovery faults
    ({!action}) as scheduler choices: at every decision point any started
    runnable process may crash (losing its local state — its observation
    history resets) and any crashed process may recover, up to a budget
    of crash–recovery pairs.

    Guarantees: within the given bounds the search visits every reachable
    interleaving class, so a reported [Ok] means no violation exists up to
    the bounds (not absolute correctness); a reported violation comes with
    its schedule and replays deterministically.  The search is sequential,
    so the verdict, the schedule and every stat are a pure function of
    the inputs. *)

type config = {
  max_depth : int;  (** total scheduler steps per explored run *)
  max_steps_per_proc : int;  (** per-process access budget *)
  max_states : int;  (** abort threshold on explored prefixes *)
}

val default_config : config

type stats = {
  runs : int;  (** maximal schedules explored *)
  states : int;  (** search nodes visited *)
  pruned_dedup : int;
      (** prefixes cut by the memoization on an unrewritten key *)
  pruned_sym : int;
      (** prefixes cut on a key the symmetry canonicalisation rewrote;
          always 0 without a [symmetry] hint *)
  pruned_por : int;
      (** enabled transitions skipped by the partial-order reduction
          (sleeping processes, plus the siblings a singleton ample set
          dropped); always 0 without an [independence] hint *)
  fp_collisions : int;
      (** detected fingerprint collisions in compact mode (state explored
          without storing); always 0 in exact mode *)
  seen_pop : int;  (** seen-set entries at the end of the search *)
  seen_cap : int;
      (** seen-set initial capacity ([max_states] or the [seen_hint]) *)
  truncated : bool;  (** some branch hit a bound *)
}

(** The rollback policy of the search (see the module docstring).  The
    two give the same results; they differ only in how much process code
    each rollback re-executes. *)
type engine =
  | Incremental
      (** rebuild only the processes the abandoned branch touched
          (default) *)
  | Replay  (** rebuild every process after every rollback *)

(** One scheduler choice in a fault-aware schedule. *)
type action =
  | Step of int     (** advance the pid by one shared access *)
  | Crash of int    (** fail-stop the pid (local state lost) *)
  | Recover of int  (** restart the crashed pid from the top *)

val pp_action : Format.formatter -> action -> unit

type 'schedule gen_result =
  | Ok of stats
  | Violation of {
      schedule : 'schedule;  (** choices, in execution order *)
      violation : Cfc_core.Spec.violation;
      stats : stats;
    }

type result = int list gen_result
type fault_result = action list gen_result

val run :
  ?config:config ->
  ?symmetry:Symmetry.t ->
  ?engine:engine ->
  ?compact:bool ->
  ?independence:Independence.t ->
  ?seen_hint:int ->
  inc:Cfc_core.Spec.Inc.t ->
  ?observe_access:
    (pid:int ->
    reg:Cfc_runtime.Register.t ->
    kind:Cfc_runtime.Event.access_kind ->
    unit) ->
  system:(unit -> Cfc_runtime.Memory.t * (unit -> unit) array) ->
  check:(Cfc_runtime.Trace.t -> nprocs:int -> Cfc_core.Spec.violation option) ->
  unit ->
  result
(** [run ~system ~check ()] explores every interleaving within bounds
    ([system] must be deterministic: fresh memory and fresh process
    closures on each call) and checks the safety property at every node.
    No faults are injected.

    [inc] is the safety property in incremental form (see
    {!Cfc_core.Spec.Inc}): the search feeds it only the events each
    action appends.  [check] is the same property over a whole trace;
    the search does not call it (the test suite's reference explorer
    does), and the two must agree.

    [symmetry] switches on the canonicalisation-based symmetry reduction
    described in the module docstring (build the group with
    {!Symmetry.identical} for literally identical processes or
    {!Symmetry.mutex}/{!Symmetry.of_report} for pid-specialised code).
    Sound only when the checked property is pid-symmetric, which every
    property in {!Props} is.  For a pure (identical-processes) group the
    search additionally restricts fresh-process candidates to the lowest
    pid — the old candidate-level pruning — when no [independence] hint
    is active.

    [compact] (default [false]) stores 2×62-bit fingerprints instead of
    full keys in the seen set; collisions are counted in
    [fp_collisions].

    [independence] (see {!Independence.mutex}) switches on the
    partial-order-reduced search described in the module docstring; the
    verdict is unchanged, [states] shrinks, [pruned_por] counts the
    skipped work.  Composes with [symmetry] and with either [engine].
    Ignored under fault injection and when no per-process model is
    usable.

    [seen_hint] pre-sizes the memo table below its [max_states] default
    (pass a previous run's [seen_pop] to trim memory on repeated small
    runs); purely a performance hint.

    Every search starts with [Gc.full_major ()], so what its caller
    dropped (a previous search's tables, say) is freed before it
    allocates: its peak heap does not depend on the GC's cycle phase,
    and a sequence of searches peaks at its largest one.

    [observe_access] is called on every shared access the exploration
    executes, as it happens (a rebuild's replayed prefix is not
    executed again, so it is not delivered again).  The callback sees
    a distinct access once per node that performs it, and may meet the
    same (pid, register, kind) triple on many nodes, so consumers must
    deduplicate; the set of triples delivered is the set of accesses in
    the explored prefix tree, under either [engine]. *)

val run_faults :
  ?config:config ->
  ?symmetry:Symmetry.t ->
  ?engine:engine ->
  ?compact:bool ->
  ?independence:Independence.t ->
  ?seen_hint:int ->
  inc:Cfc_core.Spec.Inc.t ->
  ?observe_access:
    (pid:int ->
    reg:Cfc_runtime.Register.t ->
    kind:Cfc_runtime.Event.access_kind ->
    unit) ->
  ?pairs:int ->
  system:(unit -> Cfc_runtime.Memory.t * (unit -> unit) array) ->
  check:(Cfc_runtime.Trace.t -> nprocs:int -> Cfc_core.Spec.violation option) ->
  unit ->
  fault_result
(** Like {!run} but additionally enumerates crash and recovery points as
    scheduler choices, up to [pairs] (default 2) crash–recovery pairs per
    run.  Crashing a process that has not yet taken a step is skipped
    (indistinguishable from not crashing it).  With [pairs = 0] this is
    exactly {!run} modulo the schedule type — including the reduction,
    which is otherwise gated off under fault injection.  The symmetry
    reduction stays on across fault branches (crash and recovery are
    pid-equivariant). *)

val replay :
  system:(unit -> Cfc_runtime.Memory.t * (unit -> unit) array) ->
  schedule:int list ->
  Cfc_runtime.Runner.outcome
(** Re-execute one schedule (for counterexample inspection). *)

val replay_actions :
  system:(unit -> Cfc_runtime.Memory.t * (unit -> unit) array) ->
  schedule:action list ->
  Cfc_runtime.Runner.outcome
(** Re-execute one fault-aware schedule. *)
