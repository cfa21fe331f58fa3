(** The model checker's state fingerprint: register values plus, per
    process, its status, protocol region and the observation history since
    its last (re)start (which determines the local state of a
    deterministic process).

    Keys are compared structurally, and each observation keeps the full
    {!Cfc_runtime.Event.access_kind} variant — an earlier encoding packed
    the kind into magic integer ranges ([20_000 + v] for exchanges,
    [30_000 + 2e + success] for compare-and-sets, …), which collide once
    register values reach the next range's base (e.g. an exchange writing
    10_000 aliased a compare-and-set); see the regression tests in
    [test_mcheck]. *)

open Cfc_runtime

type cell = { reg : int; kind : Event.access_kind }
(** One observed access: which register, and the full operation with its
    observed result. *)

type proc_key = {
  k_status : int;  (** {!status_tag} of the scheduler status *)
  k_region : Event.region;
  k_obs_hash : int;
      (** left fold of {!cell_hash} over [k_obs], oldest observation
          first, starting from [0] — maintained incrementally by
          {!Explore} so {!hash} never walks the lists *)
  k_obs : cell list;  (** observations since last (re)start, newest first *)
}

type t = { k_regvals : int array; k_procs : proc_key array }

val status_tag : Scheduler.status -> int
(** Small-int encoding of the status constructor ([Errored] exceptions
    carry closures, so statuses are not compared structurally). *)

val cell : Register.t -> Event.access_kind -> cell

val cell_hash : int -> cell -> int
(** One fold step of the rolling observation hash,
    [fold_digest h (cell_digest c)].  Every construction path (the
    engine's per-event update, a full trace scan) must fold in the same
    order — oldest first — so structurally equal keys carry equal
    [k_obs_hash] fields. *)

val cell_digest : cell -> int
(** [Hashtbl.hash] of the cell: computed once, it can feed several
    folds. *)

val fold_digest : int -> int -> int

val equal : t -> t -> bool
(** Structural: the same relation as polymorphic [=] on keys, so no
    hash collision can cause unsound pruning.  Typed and allocation
    free; physically equal observation-list tails compare equal without
    a walk. *)

val hash : t -> int
(** O(nprocs + registers): combines the register values and each
    process's status, region and precomputed [k_obs_hash] without
    traversing the observation lists. *)

val fingerprint : t -> int -> int * int
(** [fingerprint t salt] digests the {e entire} key — every register
    value, every observation with its full operand list — through two
    independent 62-bit multiply–xorshift lanes seeded with [salt] (the
    compact seen-set passes the crash-budget component of its memo key
    there).  The pair gives ~124 bits of discrimination; a collision on
    both lanes at once is what it takes for the compact mode to wrongly
    merge two distinct states.  Deterministic across runs and domains. *)
