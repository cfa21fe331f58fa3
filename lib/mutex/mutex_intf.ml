(** Interfaces for mutual exclusion and contention detection algorithms.

    Algorithms are functors over {!Cfc_base.Mem_intf.MEM} so the identical
    code runs on the instrumented simulator and on the native multicore
    backend.  An algorithm never annotates regions or measures anything —
    harnesses do that around [lock]/[unlock]. *)

open Cfc_base

type params = {
  n : int;  (** number of competing processes, ids [0..n-1] *)
  l : int;  (** the atomicity parameter: target register width in bits.
                Algorithms that do not trade off on [l] ignore it. *)
}

(** [params n] with [l] defaulting to [bits_needed n] (large registers). *)
let params ?l n =
  let l = match l with Some l -> l | None -> Ixmath.bits_needed n in
  { n; l }

(** Predicted solo recovery-path complexity of a recoverable lock, in
    the Golab–Ramaraju crash–recovery model: the cost for a restarted
    incarnation to get back into its critical section, split by whether
    the crashed incarnation held the lock (crash in [Critical]) or not
    (crash in [Trying]).  Crashes in [Exiting] are ambiguous — the
    release may or may not have taken effect — so a sweep point there
    must cost one of the two forms, never more.  Registers double as the
    predicted recovery RMR: a crash invalidates the incarnation's cached
    copies, so solo every distinct register on the path is one remote
    reference (the §1.2 claim, extended to recovery). *)
type recovery_forms = {
  rec_steps_held : int;
  rec_steps_not_held : int;
  rec_registers_held : int;
  rec_registers_not_held : int;
}

(** A mutual exclusion algorithm. *)
module type ALG = sig
  val name : string

  val supports : params -> bool
  (** Whether the algorithm is defined for these parameters (e.g. a
      2-process algorithm supports only [n <= 2]). *)

  val recovery : params -> recovery_forms option
  (** [Some forms] iff the lock is recoverable (a restarted incarnation
      re-runs [lock] from the top and re-enters instead of deadlocking);
      the exact solo recovery closed forms are asserted against
      {!Cfc_core.Measures.Online.recovery_paths} by tests and benches.  [None]
      for ordinary locks, for which a crash while holding blocks the
      system. *)

  val atomicity : params -> int
  (** The width in bits of the widest register the algorithm accesses —
      the paper's [l].  Must match what [create] actually allocates
      (cross-checked by tests against {!Cfc_runtime.Memory.max_width}). *)

  (** Predicted contention-free complexity, if the algorithm has a known
      closed form (used by exact-count tests and the bench tables). *)
  val predicted_cf_steps : params -> int option

  val predicted_cf_registers : params -> int option

  module Make (M : Mem_intf.MEM) : sig
    type t

    val create : params -> t
    (** Allocate the shared registers.  Call outside process execution. *)

    val lock : t -> me:int -> unit
    val unlock : t -> me:int -> unit
  end
end

(** A two-process lock, the building block of tournament trees [PF77].
    Sides are 0 and 1; at most one process uses a side at a time. *)
module type TWO = sig
  val name : string

  val atomicity : int
  (** Width of the widest register (1 for the bit-only algorithms). *)

  val cf_steps : int
  (** Exact solo lock+unlock access count. *)

  val cf_registers : int
  (** Exact solo distinct-register count. *)

  module Make (M : Mem_intf.MEM) : sig
    type t

    val create : name:string -> unit -> t
    val lock : t -> side:int -> unit
    val unlock : t -> side:int -> unit
  end
end

(** A solution to the contention detection problem (§2.3): in every run at
    most one process outputs [true]; a process running alone outputs
    [true].  Single-shot: call [detect] once per process. *)
module type DETECTOR = sig
  val name : string
  val supports : params -> bool
  val atomicity : params -> int
  val predicted_cf_steps : params -> int option
  val predicted_wc_steps : params -> int option
  (** Worst-case step complexity when the algorithm is wait-free (the §2.6
      claim that contention detection has bounded worst-case step
      complexity, unlike mutual exclusion). *)

  module Make (M : Mem_intf.MEM) : sig
    type t

    val create : params -> t
    val detect : t -> me:int -> bool
  end
end
