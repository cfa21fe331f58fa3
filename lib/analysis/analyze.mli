(** The symbolic access-graph analyzer: bounded exhaustive solo
    exploration of one {!Subjects.t}, the per-variant shared-access
    graph, and the three static passes — contention-free complexity,
    atomicity conformance and spin-structure classification.

    Each path runs the variant as the only process of a
    {!Cfc_runtime.Scheduler} over {!Cfc_runtime.Sim_mem}, the simulator
    every other run uses, and records its accesses from the scheduler's
    event sink.  A driver {e injects} adversarial register contents at
    chosen access indices — the "unconstrained read" forks.

    Exploration: the baseline path runs with no injections (it {e is}
    the contention-free run, so the §2.2/§3.2 measures are read off its
    graph nodes); every value-returning access then becomes a fork
    point, and plans of up to [max_forks] injections (strictly
    increasing indices, values exhaustive up to 4-bit registers and the
    corners [{0, 1, 2, 2{^w}-1}] beyond) are replayed breadth-first up
    to [max_paths] per variant.  A path ends when the body returns, the
    step budget runs out, a busy-wait cycle is recognized (three
    identical (register, op class, observed value) periods), or an
    injected value drives the algorithm into an exception (such a path
    is infeasible under real schedules and is discarded).  A register
    operation that fails (a model or width violation) is no access: it
    takes no index and is not recorded. *)

open Cfc_core

val op_class : Cfc_runtime.Event.access_kind -> string
(** Coarse label of an access, the class part of a graph node's
    identity: ["read"], ["write"], ["write-field"], ["xchg"], ["cas"]
    (successful or not) and ["bit:<op>"].  The model checker matches its
    dynamic accesses to graph nodes by it. *)

type config = {
  max_forks : int;  (** injections per path (fork depth bound) *)
  max_paths : int;  (** replayed paths per variant *)
  max_steps : int;  (** accesses per path *)
  max_period : int;  (** longest busy-wait pattern recognized *)
}

val default_config : config

(** A node of the shared-access graph: one shared operation, identified
    by (register, operation class, occurrence number along its path) and
    merged across explored paths. *)
type node = {
  n_reg : int;  (** register id (allocation order) *)
  n_name : string;
  n_width : int;
  n_class : string;  (** {!op_class} *)
  n_occ : int;
  mutable n_write : bool;  (** writes the register on some path *)
  mutable n_observes : bool;  (** returns a value read from it *)
  mutable n_cycle : bool;  (** lies on a detected busy-wait cycle *)
  mutable n_may_end : bool;
      (** is the last access of some path on which the body returned —
          executing it can complete the variant (and, under a harness,
          trigger the post-body decision/region change) *)
  mutable n_baseline : int;
      (** position on the contention-free baseline path, [-1] if the
          node is reachable only under contention *)
  mutable n_baseline_write : bool;
  mutable n_wvals : int list;
      (** distinct values this access stored across explored paths
          (post-access register content of writing executions) *)
  mutable n_wvals_exact : bool;
      (** [false] once the stored-value set overflowed the cap — the
          access may then write anything *)
  mutable n_spinvals : int list;
      (** distinct values observed at this access while it was part of a
          detected busy-wait cycle — the values the spin does {e not}
          accept *)
  mutable n_spinvals_exact : bool;
}

type key = int * string * int

type graph = {
  g_nodes : (key, node) Hashtbl.t;
  g_edges : (key * key, unit) Hashtbl.t;  (** control-flow successors *)
}

type variant_report = {
  vr_label : string;
  vr_graph : graph;
  vr_baseline : Measures.sample;
      (** §2.2/§3.2 measures of the baseline path, from the graph *)
  vr_paths : int;  (** paths replayed (including discarded ones) *)
  vr_completed : key list list;
      (** the key sequence of every explored path on which the body
          returned — exact witnesses for "can the variant complete
          without executing node [k]?" questions, which the merged graph
          cannot answer (merging fabricates cross-path walks no real
          execution follows) *)
  vr_spin_regs : (int * string) list;
      (** registers observed inside busy-wait cycles *)
  vr_writes_line : int list;  (** registers written outside any cycle *)
  vr_writes_cycle : int list;  (** registers written inside a cycle *)
  vr_max_width : int;  (** widest register accessed on any path *)
}

(** The spin-structure prediction, in the write-invalidate (YA93) model
    the §1.2 remote-access discussion appeals to:
    - [Wait_free]: no busy-wait cycle on any explored path;
    - [Local_spin]: every spun-on register is remotely written only in
      straight-line code, so each remote passage invalidates the
      spinner's cached copy a bounded number of times (bounded RMR per
      passage — the MCS shape);
    - [Spin_on_shared]: some spun-on register is written {e inside}
      another variant's busy-wait cycle, so a single adversarial
      passage forces unboundedly many remote references (the
      test-and-set shape). *)
type spin_class = Wait_free | Local_spin | Spin_on_shared

val spin_class_name : spin_class -> string

type report = {
  subject : Subjects.t;
  variants : variant_report list;
  static_cf : Measures.sample;
      (** componentwise max of the baseline measures over variants —
          the static contention-free complexity *)
  nodes : int;
  edges : int;
  max_width : int;
  spin_class : spin_class;
}

val analyze : ?config:config -> Subjects.t -> report
(** Raises [Failure] if a baseline (injection-free) solo execution does
    not terminate within the budget — a contention-free run that spins
    is an algorithm bug, not an analysis result. *)
