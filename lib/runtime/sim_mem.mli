(** The simulated {!Cfc_base.Mem_intf.MEM} backend.

    Allocation goes directly to a {!Memory.t} arena (algorithm creation
    happens outside process execution); an access performs an effect
    handled by the scheduler, so the scheduler fully controls interleaving
    and records every step.  Each access first reads the arena's
    {!Memory.cursor} (two field loads and no call when it is clear),
    which makes two exceptions:
    - a suspension rebuild: while the cursor holds a replayed prefix,
      accesses and pauses return the recorded answers without performing
      an effect;
    - a run-ahead: while the cursor holds a grant from
      {!Scheduler.step_ahead}, an access is applied to its register at
      once and reported to the scheduler's tap, which emits its event and
      counts its step.  An access whose register operation raises drops
      the grant and performs its effect, so the scheduler's own error
      rule handles it. *)

val mem : Memory.t -> Cfc_base.Mem_intf.mem
(** A first-class [MEM] module whose registers live in the given arena.
    [read]/[write]/[bit_op] must only be called from code running under
    {!Proc.start} (i.e. inside a scheduled process); calling them outside
    raises [Effect.Unhandled]. *)

module type TYPED = Cfc_base.Mem_intf.MEM with type reg = Register.t

val typed : Memory.t -> (module TYPED)
(** The same backend with its register type exposed: a rig that keeps a
    register's handle can read it off the arena after the run
    ({!Register.read}) instead of looking it up by name.  {!mem} is this
    module with the type made abstract. *)
