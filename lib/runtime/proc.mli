(** The effect-based process engine.

    An algorithm runs as a plain OCaml function; a shared-memory access
    that needs a scheduling decision performs an effect.  [start] installs
    a deep handler that reifies the function into a {!suspension}: the
    scheduler inspects the pending request, performs the semantic
    operation on the register, and resumes the one-shot continuation with
    the result.  This realizes the paper's interleaving semantics with one
    suspension point per atomic step.

    Two kinds of access perform no effect, because no decision is due:
    those answered from the arena's {!Memory.cursor} while the scheduler
    rebuilds a suspension, and those a process runs inline under a
    run-ahead grant ({!Scheduler.step_ahead}) when no other process could
    be picked before them.  Both produce exactly the answers and events
    the suspended path would. *)

type _ Effect.t +=
  | E_read : Register.t -> int Effect.t
  | E_write : Register.t * int -> unit Effect.t
  | E_write_field : Register.t * int * int * int -> unit Effect.t
  | E_xchg : Register.t * int -> int Effect.t
  | E_cas : Register.t * int * int -> bool Effect.t
  | E_bit_op : Register.t * Cfc_base.Ops.t -> int option Effect.t
  | E_region : Event.region -> unit Effect.t
  | E_pause : unit Effect.t
  | E_sleep : int -> unit Effect.t

exception Crashed
(** Raised inside a process to unwind it when the scheduler injects a
    fail-stop crash. *)

type suspension =
  | Done                    (** the process function returned *)
  | Failed of exn           (** the process raised (including {!Crashed}) *)
  | Read of Register.t * (int, suspension) Effect.Deep.continuation
  | Write of Register.t * int * (unit, suspension) Effect.Deep.continuation
  | Write_field of
      Register.t * int * int * int
      * (unit, suspension) Effect.Deep.continuation
  | Xchg of Register.t * int * (int, suspension) Effect.Deep.continuation
  | Cas of
      Register.t * int * int * (bool, suspension) Effect.Deep.continuation
  | Bit_op of
      Register.t * Cfc_base.Ops.t
      * (int option, suspension) Effect.Deep.continuation
  | Region of Event.region * (unit, suspension) Effect.Deep.continuation
  | Pause of (unit, suspension) Effect.Deep.continuation
  | Sleep of int * (unit, suspension) Effect.Deep.continuation
      (** a requested delay in virtual ticks.  {!Scheduler.step} stops
          before it ({!Scheduler.Asleep}) and resumes through it at the
          process's next step; {!Wheel} schedules that step no earlier
          than the wake tick. *)

val start : (unit -> unit) -> suspension
(** Run the function until its first suspension point (or completion). *)

val region : Event.region -> unit
(** Performs [E_region] — annotate the current process's protocol region.
    Harness code uses this around entry/critical/exit sections.  While
    {!rebuilding} is set it does nothing. *)

val rebuilding : unit -> bool ref
(** This domain's rebuild flag.  {!Scheduler} sets it while it replays a
    process's recorded prefix, whose region changes it already holds. *)

val decide : int -> unit
(** [decide v] = [region (Decided v)]. *)

val sleep : int -> unit
(** Performs [E_sleep d] — yield for [d] virtual ticks of think time.
    Free: not a step, no access, no event.  The step that reaches it
    ends there; under {!Wheel} the process then leaves the active set
    until the wheel clock reaches [now + max 1 d], and a picker without
    a clock ({!Runner}) may step it again at once. *)
