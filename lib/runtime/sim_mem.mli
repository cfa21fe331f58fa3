(** The simulated {!Cfc_base.Mem_intf.MEM} backend.

    Allocation goes directly to a {!Memory.t} arena (algorithm creation
    happens outside process execution); every access performs an effect
    handled by the scheduler, so the scheduler fully controls interleaving
    and records every step.  The one exception is a suspension rebuild:
    while the arena's {!Memory.cursor} holds a replayed prefix, accesses
    and pauses return the recorded answers without performing an
    effect. *)

val mem : Memory.t -> Cfc_base.Mem_intf.mem
(** A first-class [MEM] module whose registers live in the given arena.
    [read]/[write]/[bit_op] must only be called from code running under
    {!Proc.start} (i.e. inside a scheduled process); calling them outside
    raises [Effect.Unhandled]. *)
