(** A shared-memory arena: allocator and registry of {!Register.t} cells.

    One arena corresponds to one run configuration.  Allocation happens when
    an algorithm instance is created (outside process execution); the
    registers then constitute the run's shared state.  [reset] restores all
    initial values, which together with a deterministic schedule gives
    deterministic replay (used by the model checker). *)

type t

val create : unit -> t

val alloc :
  ?name:string -> ?model:Cfc_base.Model.t -> width:int -> init:int -> t ->
  Register.t
(** Allocate a fresh register.  Default [name] is ["r<id>"]. *)

val alloc_array :
  ?name:string -> ?model:Cfc_base.Model.t -> width:int -> init:int -> t ->
  int -> Register.t array
(** [alloc_array t k]: registers named ["name[0]" … "name[k-1]"]. *)

val registers : t -> Register.t list
(** All allocated registers, in allocation order. *)

val size : t -> int
(** Number of registers allocated (the paper's space complexity). *)

val fold : ('a -> Register.t -> 'a) -> 'a -> t -> 'a
(** Fold over every allocated register, newest first, allocating
    nothing. *)

val max_width : t -> int
(** The largest width allocated so far — an upper bound on the atomicity of
    any algorithm using only this arena; [0] for an empty arena.  Widths
    are additionally enforced on every write-class access: {!Register}
    raises a descriptive [Invalid_argument] when a stored value would
    exceed the register's declared width (so does the native backend). *)

val reset : t -> unit
(** Restore every register to its initial value. *)

val values : t -> int array
(** Snapshot of every register's current value (internal order, matching
    {!restore_values}).  O(registers); the checkpoint half of the model
    checker's undo machinery. *)

val restore_values : t -> int array -> unit
(** Write a {!values} snapshot back.  Raises [Invalid_argument] if the
    arena allocated registers since the snapshot was taken. *)

val value_changed : t -> before:int array -> Register.t -> bool
(** [value_changed t ~before r]: does [r] now hold a different value than
    in the {!values} snapshot [before]?  After a single scheduler step,
    which performs at most one access, this answers "did memory change"
    for the accessed register [r] without building a new snapshot.
    Raises [Invalid_argument] if the arena allocated registers since the
    snapshot was taken. *)

(** {1 The arena cursor}

    Every access {!Sim_mem} makes first reads the arena's cursor, which
    can answer it without performing an effect in two ways, never at
    once.  Outside both the cursor is clear and every access performs
    its effect.

    {b Replay.}  While {!Scheduler} rebuilds a suspension, the cursor
    carries the answers of the replayed prefix: a count of
    access-or-pause calls still to answer and the recorded access
    answers, oldest first.  The scheduler loads the count one segment
    at a time, up to each register-op failure the process caught, so
    the cursor runs dry exactly at the failing op, which performs its
    effect and gets its exception again.  {!Sim_mem}'s access operations
    take the next answer when its kind matches and return it, and its
    pause counts itself off the same way.  On a kind mismatch or an
    exhausted list they perform the effect as usual, so the rebuilding
    scheduler sees it and reports the divergence.

    {b Run-ahead.}  When {!Scheduler.step_ahead} grants the running
    process [n] inline accesses, the cursor holds [n] and a {!tap}.
    Each of the next [n] accesses is then applied to its register at
    once and reported to the tap, which emits the same event the step
    would have and counts the access.  Pauses, sleeps and region changes
    still perform their effects, and the scheduler revokes whatever is
    left of the grant when its step ends. *)

type tap = Register.t -> Event.access_kind -> unit
(** Receives each access made inline under a grant, after it was applied
    to the register. *)

type cursor = private {
  mutable remaining : int;
      (** replay: access-or-pause calls still to answer *)
  mutable answers : Event.access_kind list;
      (** replay: recorded answers not yet taken, oldest first *)
  mutable grant : int;  (** run-ahead: inline accesses still granted *)
  mutable tap : tap option;  (** run-ahead: where they are reported *)
}
(** Readable, so that {!Sim_mem}'s check on every access is a field load
    rather than a call; changed only through the functions below.  Both
    counts are 0 outside a rebuild and a granted step. *)

type Register.home += Arena of cursor
(** The home of every register an arena allocates: its cursor. *)

val cursor : t -> cursor

val replay_start : cursor -> calls:int -> Event.access_kind list -> unit
(** Answer the next [calls] access-or-pause calls from [answers]. *)

val replaying : cursor -> bool
(** Calls remain to be answered from the recording. *)

val replay_pending : cursor -> Event.access_kind list
(** The recorded answers not yet taken while {!replaying}, oldest first;
    [[]] otherwise, so outside a rebuild every access finds nothing to
    take. *)

val replay_take : cursor -> unit
(** Answer one access call with the head of {!replay_pending}. *)

val replay_skip : cursor -> unit
(** Answer one call that has no recorded answer (a pause or a sleep). *)

val replay_stop : cursor -> bool
(** Clear the cursor; [true] iff every recorded answer had been taken. *)

val grant : cursor -> int -> tap -> unit
(** [grant c n tap]: let the next [n] accesses run inline, each reported
    to [tap].  The cursor holds the tap only until {!revoke}:
    registers reach the cursor through {!Register.home}, and structural
    equality on a register should meet no closure outside a granted
    step. *)

val ran_ahead : cursor -> Register.t -> Event.access_kind -> unit
(** Count one inline access off the grant and report it to the tap. *)

val revoke : cursor -> unit
(** Drop what is left of the grant. *)

val dump : t -> string
(** One-line rendering of the current contents, for debugging. *)

val fingerprint : t -> int
(** A hash of the current register values (state pruning in the model
    checker). *)
