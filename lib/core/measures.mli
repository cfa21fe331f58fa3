(** The paper's complexity measures (§2.2, §3.2).

    Every measure is computed by one streaming fold, {!Online}, and read
    off with the queries below.  The two drivers feed it: {!Solo} live
    from the wheel for contention-free runs (solo/sequential), and
    {!Adversary} once from the recorded trace of each scheduled run (the
    worst-case schedule family, contended workloads, chaos runs and the
    recovery sweeps).  {!Online.of_trace} replays a recorded
    {!Cfc_runtime.Trace.t} for the tests.  The only trace scan left is
    {!decisions}, which the model checker's decision properties run at
    search nodes. *)

open Cfc_runtime

(** All six counting measures of one process over one run fragment:
    step/register complexity and their read/write refinements (the [r] and
    [w] of Lemma 3). *)
type sample = {
  steps : int;
  registers : int;
  read_steps : int;
  write_steps : int;
  read_registers : int;
  write_registers : int;
}

val zero : sample

val max_sample : sample -> sample -> sample
(** Componentwise maximum — the paper takes the max over processes/runs
    separately per measure. *)

val pp_sample : Format.formatter -> sample -> unit

val decisions : Trace.t -> nprocs:int -> (int * int) list
(** [(pid, value)] for every process that reached [Decided v], in trace
    order. *)

(** The streaming fold of every §2.2/§3.2 measure.

    [Online.t] consumes events one at a time and maintains every
    accumulator incrementally, so a run never materialises its event
    list.  Each query is the measure's definition, stated on the events
    fed so far.  A test-only reference implementation that walks
    recorded traces is kept in the test suite, and the equivalence
    batteries assert that every query equals it exactly, on real runs
    and on synthetic event sequences.

    Region bookkeeping follows {!Cfc_runtime.Trace.fold_states}: a
    [Recover] resets the process's region to [Remainder], and a bare
    [Crash] leaves the stale region in place (strong occupancy).

    Representation.  Each process keeps a row of ints per register it
    accessed: one stamp per accumulator (total, contention-free, entry
    window, exit fragment, recovery fragment), packing the accumulator's
    generation with read/write bits, plus the index of the process's
    last access to the register and the register's index in the fold.
    A page directory finds the rows by register id: a page covers 64
    consecutive ids, and its entry for a register names the register's
    owner, the pid that touched it first in this fold, and the owner's
    row.  Any other pid that touches the register keeps its row in its
    own open-addressed table keyed by register id, reached after the
    same one directory lookup.  So a solo run finds every row with array
    loads, on a page a one-entry cache usually holds.  A register is new
    to an accumulator iff its stamp's generation is stale, so resetting
    a fragment is O(1).  Write-invalidate holders are not stored as
    sets: the fold keeps each register's last-write index and each
    process's last-crash index, and a process holds a valid copy iff its
    last access is at or after the last write — and, for
    {!Online.recovery_rmr}, after its last crash.  So feeding an access
    to a register the process has touched before allocates nothing, and
    a [Crash] is O(1).

    What the online fold {e cannot} give you is anything requiring
    random access into the past: [Trace.regions_at], stall diagnosis
    over recent events, or the model checker's truncate/undo — keep a
    {!Cfc_runtime.Trace.t} sink for those (small n only).

    Memory is O(active set + completed fragments + pages touched):
    per-process state is allocated lazily at a pid's first event, the
    per-process tables grow with the registers each pid actually
    touched, and the directory with the pages of ids the fold touched,
    never with [nprocs], the arena or the range of register ids.  Ids
    need not be dense: an arena's ids (dense from 0) share pages, and an
    isolated id costs one page of its own. *)
module Online : sig
  type t

  val create : nprocs:int -> t

  val reset : t -> unit
  (** Return [t] to its {!create} state, keeping the capacity of every
      table, the directory's pages and the per-process records for
      reuse: a fold fed after a reset answers every query exactly as a
      fresh one fed the same events.  It clears only the directory
      entries the fold handed out, O(registers touched).  Cheaper than {!create} across many short runs — the
      harnesses' solo runs touch the same registers, and first touches
      on a fresh fold grow every table. *)

  val feed : t -> pid:int -> Event.body -> unit
  (** Consume one event.  [feed t] is a valid [Scheduler.sink].  Events must
      arrive in emission order (the fold keeps its own implicit
      sequence numbering).  Raises [Invalid_argument] on an
      out-of-range pid. *)

  val of_trace : nprocs:int -> Trace.t -> t
  (** A fresh fold fed every event of a recorded trace, in order. *)

  val events_seen : t -> int

  val contention_free : t -> pid:int -> sample
  (** The §2.2 contention-free measure of [pid]: its accesses in entry
      ([Trying]) and exit ([Exiting]) code.  Meaningful on runs where all
      other processes stay in their remainder (the harnesses' solo runs);
      the fold does not itself verify that. *)

  val per_process : t -> sample array
  (** Every process's whole-run sample: all its accesses.  For a naming
      process this is the §3.2 measure (start to decision).  Allocates
      O(nprocs); at large n prefer {!process_total}. *)

  val process_total : t -> pid:int -> sample
  (** One process's whole-run sample ({!per_process} cell), O(1). *)

  val decision : t -> pid:int -> int option
  (** The value of [pid]'s last [Decided] region change, if any — the
      last entry for [pid] in {!Measures.decisions} of the same events.
      A halted process's region is [Halted], so this is where a solo
      run's decision is read. *)

  val decisions : t -> (int * int) list
  (** [(pid, {!decision})] of every pid that has one, in pid order. *)

  val wc_entries : t -> (int * sample) list
  (** The §2.2 worst-case entry-code fragments: for every transition of
      some [p] from [Trying] to [Critical] at event [j], the measures of
      [p] over the largest window [(i, j)] in which [p] is in its entry
      code and no process is in its critical section or exit code —
      "start counting only after the processes previously in the critical
      section have finished their exit code".  One [(pid, sample)] per
      completed entry, in event order. *)

  val wc_exits : t -> (int * sample) list
  (** Worst-case exit-code fragments: measures of [p] over each of its
      completed [Exiting] stretches, in event order. *)

  val recovery_paths : t -> (int * sample) list
  (** Crash–recovery extension of the §2.2 fragment measures: for every
      [Recover] of process [p] at event [i] whose next [p]-event of
      interest is an entry to [Critical] at event [j] (no intervening
      crash of [p]), the measures of [p] over the open fragment [(i, j)]
      — the cost of getting back into the critical section after a
      restart.  One [(pid, sample)] per completed recovery, in event
      order; recoveries that crash again or never reach the critical
      section contribute nothing. *)

  val recovery_rmr : t -> (int * int) list
  (** Remote memory references of each completed recovery path, under the
      {!remote} write-invalidate model extended to crashes: a crash
      destroys the dying incarnation's cached copies (the Golab–Ramaraju
      restarted process starts with a cold cache), so a register is
      remote on the recovery path until first re-accessed.  One
      [(pid, rmr)] per completed recovery, one-to-one with
      {!recovery_paths}. *)

  val remote : t -> pid:int -> int
  (** [pid]'s {e remote memory references} under the write-invalidate
      coherent-cache model the paper's §1.2 appeals to (after [YA93]): an
      access to a register is remote iff the process does not hold a
      valid cached copy — it never accessed the register before, or
      another process wrote (or won a compare-and-swap on) it since the
      process's last access.  A write leaves only the writer's copy
      valid; a read joins the set of valid holders.

      In a contention-free run this equals the register complexity (the
      §1.2 claim "the number of different registers accessed accurately
      reflects the number of remote accesses", asserted by a qcheck
      property), and under contention it separates local-spin algorithms
      (MCS: bounded remotes per acquisition) from spin-on-shared ones. *)

  val remote_accesses : t -> int array
  (** {!remote} of every pid.  Allocates O(nprocs). *)

  val touched : t -> Cfc_runtime.Register.t list
  (** Distinct registers accessed so far, in no particular order. *)

  val iter_touched : (Cfc_runtime.Register.t -> unit) -> t -> unit
  (** Apply a function to each register of {!touched}, in the same
      order, building no list: the solo driver resets exactly these
      between runs instead of scanning a trace. *)

  val touched_count : t -> int

  val spawned : t -> int
  (** Number of pids whose state has materialised (= pids seen). *)
end
