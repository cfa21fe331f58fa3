(** Bounded exhaustive exploration of interleavings.

    Two engines share one search order and one memoization:

    - {b Incremental} (the default): one live (memory, scheduler, trace)
      per search branch, extended by a single action per node.  Sibling
      branches are explored by checkpoint/undo — a checkpoint stores the
      register values, the trace length, the scheduler's scalar state
      and the incremental-checker state, all O(nprocs + registers).
      One-shot continuations cannot be cloned, so a process whose
      continuation was consumed by an abandoned sibling is rebuilt
      lazily: its thunk is restarted and driven against the observations
      recorded for it (deterministic processes re-suspend at exactly the
      same point).  A process that catches a register-op exception and
      keeps going cannot be rebuilt this way; the engine detects this and
      transparently re-runs on the replay engine.
    - {b Replay} (dscheck-style): every node re-executes the whole
      schedule prefix from a fresh system.  Kept as the reference
      implementation and the fallback; the test suite pins the
      incremental engine's verdicts, schedules and stats to it.  The
      replay engine is never partial-order reduced and never
      hash-compacted (always exact keys).

    The state space is pruned with a soundness-preserving memoization:
    two schedule prefixes that reach the same fingerprint
    ({!State_key.t}: register values plus, per process, its protocol
    region and the observations since its last (re)start, which determine
    the local state of a deterministic process) have identical futures,
    so only the first is expanded.  Spin loops therefore do not blow up
    the search.  The crash count joins the memo key, so pruning stays
    sound across fault branches.

    {b Symmetry reduction} ([symmetry] hint, both engines): memo keys
    are canonicalised under the admissible pid permutations before
    lookup (see {!Symmetry}), so states that are pid-renamings of each
    other — registers, register contents and observation histories
    remapped consistently — merge into one orbit representative.
    Because the reduction acts on the key rather than on the candidate
    schedule, it composes with the partial-order reduction (the memo
    payload travels into canonical pid space by the witness permutation)
    and stays on under fault injection.  [pruned_sym] counts prune hits
    whose key the canonicalisation had rewritten.

    {b Partial-order reduction} ([independence] hint, incremental engine
    only): a static may-conflict relation between per-process next steps,
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

    {b Compact seen set} ([compact], incremental engine only): the memo
    stores two independent 62-bit fingerprints of each key
    ({!State_key.fingerprint}) instead of the full structural key —
    a large constant-factor memory saving on big sweeps.  A first-lane
    hit whose second lane mismatches is a {e detected} collision
    (counted in [fp_collisions], explored without storing — sound,
    merely slower); wrongly merging two distinct states would need both
    lanes to collide at once (~124 bits).  The exact mode remains the
    default and the tests cross-check compact verdicts against it.

    {b Domain parallelism} ([domains > 1], incremental engine only): the
    root node's candidate actions are independent subtrees fanned out
    over [Domain.spawn] workers, each with its own system and counters.
    By default ([share_seen]) the branches pool their prunes through one
    shared, mutex-striped seen set; cross-branch pruning is gated on
    subtree {e completion} (a state another branch finished exploring
    without hitting any bound), which keeps the verdict and the reported
    counterexample schedule deterministic — identical for every
    [domains] value and every timing — while the stats (how much work
    each branch happened to skip) may vary run to run.  Results merge by
    branch index: the reported violation is the one in the earliest
    branch in canonical candidate order, i.e. the same branch the
    sequential DFS enters first.  [share_seen:false] reverts to fully
    private per-branch tables (deterministic stats, but branches
    re-discover each other's states).  Each branch gets the full
    [max_states] budget either way; [domains = 1] (the default) is
    exactly the sequential search.

    {!run_faults} additionally enumerates bounded crash–recovery faults
    ({!action}) as scheduler choices: at every decision point any started
    runnable process may crash (losing its local state — its observation
    history resets) and any crashed process may recover, up to a budget
    of crash–recovery pairs.

    Guarantees: within the given bounds the search visits every reachable
    interleaving class, so a reported [Ok] means no violation exists up to
    the bounds (not absolute correctness); a reported violation comes with
    its schedule and replays deterministically. *)

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
      (** seen-set initial capacity ([max_states] or the [seen_hint]);
          with private per-branch tables, the sum over branches *)
  truncated : bool;  (** some branch hit a bound *)
}

(** Which exploration engine to use (see the module docstring). *)
type engine =
  | Incremental  (** live system + checkpoint/undo (default) *)
  | Replay       (** re-execute the whole prefix at every node *)

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
  ?domains:int ->
  ?share_seen:bool ->
  ?compact:bool ->
  ?replay_safe:bool ->
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

    [check] is the whole-trace property and [inc] its incremental form
    (see {!Cfc_core.Spec.Inc}), which the incremental engine feeds only
    the events each action appends.  The two must agree; the replay
    engine always uses [check].

    [symmetry] switches on the canonicalisation-based symmetry reduction
    described in the module docstring (build the group with
    {!Symmetry.identical} for literally identical processes or
    {!Symmetry.mutex}/{!Symmetry.of_report} for pid-specialised code).
    Sound only when the checked property is pid-symmetric, which every
    property in {!Props} is.  For a pure (identical-processes) group the
    engines additionally restrict fresh-process candidates to the lowest
    pid — the old candidate-level pruning — when no [independence] hint
    is active.

    [domains] (default 1) fans the root branches over that many domains
    (capped by the branch count; incremental engine only); [share_seen]
    (default [true]) pools prunes across branches through a shared
    sharded seen set — see the module docstring for the determinism
    story.

    [compact] (default [false]) stores 2×62-bit fingerprints instead of
    full keys in the incremental engine's seen set; collisions are
    counted in [fp_collisions].  The replay engine ignores it.

    [replay_safe] (default [true]) is a hint from static analysis (see
    [Cfc_analysis.Analyze]): pass [false] when some process is known to
    swallow a mid-access discontinuation, and the exploration starts on
    the replay engine directly instead of discovering the problem and
    falling back mid-search.  Passing [false] for a replay-safe system is
    sound — only slower; passing [true] for an unsafe one merely restores
    the dynamic fallback.

    [independence] (see {!Independence.mutex}) switches the incremental
    engine to the partial-order-reduced search described in the module
    docstring; the verdict is unchanged, [states] shrinks, [pruned_por]
    counts the skipped work.  Composes with [symmetry].  Ignored under
    fault injection, on the replay engine and when no per-process model
    is usable.

    [seen_hint] pre-sizes the memo table below its [max_states] default
    (pass a previous run's [seen_pop] to trim memory on repeated small
    runs); purely a performance hint.

    [observe_access] is called on every shared access the exploration
    executes, as it happens.  The callback sees each distinct access many
    times (once per node that performs or — on the replay engine —
    re-executes it), so consumers must deduplicate; the set of (pid,
    register, kind) triples delivered is the set of accesses in the
    explored prefix tree, on either engine.  With [domains > 1] the
    callback fires concurrently from worker domains and must be
    thread-safe. *)

val run_faults :
  ?config:config ->
  ?symmetry:Symmetry.t ->
  ?engine:engine ->
  ?domains:int ->
  ?share_seen:bool ->
  ?compact:bool ->
  ?replay_safe:bool ->
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
