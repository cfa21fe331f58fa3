(** An append-only log of {!Event.t} with the queries the complexity
    analyses need.  The trace is the ground truth every measure in
    {!Cfc_core} is computed from. *)

type t

val create : unit -> t

val record : t -> pid:int -> Event.body -> Event.t
(** Append an event; assigns the next sequence number. *)

val length : t -> int

val truncate : t -> int -> unit
(** [truncate t n] forgets every event with sequence number >= [n] (the
    model checker's backtracking undo: appends after a truncation reuse
    the dropped sequence numbers).  Raises [Invalid_argument] unless
    [0 <= n <= length t]. *)

val get : t -> int -> Event.t
(** [get t i] is the event with sequence number [i]; O(1). *)

val iter : (Event.t -> unit) -> t -> unit
(** Stack-safe for traces of any length: a plain loop over the backing
    array, no recursion (regression-tested on a million-event trace). *)

val fold : ('a -> Event.t -> 'a) -> 'a -> t -> 'a
(** Left fold in event order.  Iterative (built on {!iter}), so deep
    recording runs cannot overflow the stack — same guarantee as
    {!fold_states}. *)

val to_list : t -> Event.t list

val regions_at : t -> int -> nprocs:int -> Event.region array
(** [regions_at t i ~nprocs]: each process's region in the state {i just
    before} event [i] (processes start in [Remainder]).  O(i); prefer
    {!fold_states} for whole-trace scans. *)

val fold_states :
  nprocs:int -> ('a -> Event.region array -> Event.t -> 'a) -> 'a -> t -> 'a
(** Fold over events together with the region vector of the state before
    each event.  The array is updated in place between calls — copy it if
    you keep it.

    Crash–recovery: a [Recover] event resets the recovered process's
    region to [Remainder], mirroring {!Scheduler.recover} (the restarted
    incarnation begins from the top of its thunk).  A bare [Crash]
    deliberately leaves the stale region in place — a process that
    fail-stopped inside its critical section stays an occupant until it
    recovers (strong occupancy), so occupancy-window measures are never
    silently widened by a fail-stop. *)

val last : ?pid:int -> int -> t -> Event.t list
(** [last n t]: the final [n] events of the trace (those of [pid] only if
    given), oldest first.  Used by stall/error diagnostics. *)

val pp : Format.formatter -> t -> unit
(** Print the full event log, one event per line. *)
