open Cfc_base

(* Run-ahead: the running process holds a grant, so the access is
   applied here and reported to the cursor's tap instead of suspending.
   An operation that raises (a model or width violation) drops the grant
   and performs its effect after all: the scheduler then parks the
   process at it, and its next step fails the same way through the
   scheduler's own error rule.  Kept out of line so that the
   operations' frames, which every resident fiber carries, do not
   grow. *)
let[@inline never] ahead_read cur r =
  match Register.read r with
  | v -> Memory.ran_ahead cur r (Event.A_read v); v
  | exception _ ->
    Memory.revoke cur;
    Effect.perform (Proc.E_read r)

let[@inline never] ahead_write cur r v =
  match Register.write r v with
  | () -> Memory.ran_ahead cur r (Event.A_write v)
  | exception _ ->
    Memory.revoke cur;
    Effect.perform (Proc.E_write (r, v))

let[@inline never] ahead_write_field cur r ~index ~width v =
  match Register.write_field r ~index ~width v with
  | () -> Memory.ran_ahead cur r (Event.A_field (index, width, v))
  | exception _ ->
    Memory.revoke cur;
    Effect.perform (Proc.E_write_field (r, index, width, v))

let[@inline never] ahead_bit_op cur r op =
  match Register.bit_op r op with
  | ret -> Memory.ran_ahead cur r (Event.A_bit (op, ret)); ret
  | exception _ ->
    Memory.revoke cur;
    Effect.perform (Proc.E_bit_op (r, op))

let[@inline never] ahead_xchg cur r v =
  match Register.fetch_and_store r v with
  | old -> Memory.ran_ahead cur r (Event.A_xchg (v, old)); old
  | exception _ ->
    Memory.revoke cur;
    Effect.perform (Proc.E_xchg (r, v))

let[@inline never] ahead_cas cur r expected v =
  match Register.compare_and_set r ~expected v with
  | success -> Memory.ran_ahead cur r (Event.A_cas (expected, v, success)); success
  | exception _ ->
    Memory.revoke cur;
    Effect.perform (Proc.E_cas (r, expected, v))

module type TYPED = Mem_intf.MEM with type reg = Register.t

let typed arena : (module TYPED) =
  let cur = Memory.cursor arena in
  (module struct
    type reg = Register.t

    let alloc ?name ~width ~init () = Memory.alloc ?name ~width ~init arena

    let alloc_bit ?name ~model ~init () =
      Memory.alloc ?name ~model ~width:1 ~init arena

    let alloc_array ?name ~width ~init k =
      Memory.alloc_array ?name ~width ~init arena k

    let alloc_bit_array ?name ~model ~init k =
      Memory.alloc_array ?name ~model ~width:1 ~init arena k

    (* Under a run-ahead grant the access happens inline; during a
       suspension rebuild the cursor answers the replayed prefix when
       the recorded kind matches; anything else is performed.  Telling
       which takes field loads and no call. *)
    let read r =
      if cur.Memory.grant > 0 then ahead_read cur r
      else if cur.Memory.remaining = 0 then Effect.perform (Proc.E_read r)
      else
        match cur.Memory.answers with
        | Event.A_read v :: _ -> Memory.replay_take cur; v
        | _ -> Effect.perform (Proc.E_read r)

    let write r v =
      if cur.Memory.grant > 0 then ahead_write cur r v
      else if cur.Memory.remaining = 0 then
        Effect.perform (Proc.E_write (r, v))
      else
        match cur.Memory.answers with
        | Event.A_write _ :: _ -> Memory.replay_take cur
        | _ -> Effect.perform (Proc.E_write (r, v))

    let write_field r ~index ~width v =
      if cur.Memory.grant > 0 then ahead_write_field cur r ~index ~width v
      else if cur.Memory.remaining = 0 then
        Effect.perform (Proc.E_write_field (r, index, width, v))
      else
        match cur.Memory.answers with
        | Event.A_field _ :: _ -> Memory.replay_take cur
        | _ -> Effect.perform (Proc.E_write_field (r, index, width, v))

    let bit_op r op =
      if cur.Memory.grant > 0 then ahead_bit_op cur r op
      else if cur.Memory.remaining = 0 then
        Effect.perform (Proc.E_bit_op (r, op))
      else
        match cur.Memory.answers with
        | Event.A_bit (_, ret) :: _ -> Memory.replay_take cur; ret
        | _ -> Effect.perform (Proc.E_bit_op (r, op))

    let fetch_and_store r v =
      if cur.Memory.grant > 0 then ahead_xchg cur r v
      else if cur.Memory.remaining = 0 then Effect.perform (Proc.E_xchg (r, v))
      else
        match cur.Memory.answers with
        | Event.A_xchg (_, old) :: _ -> Memory.replay_take cur; old
        | _ -> Effect.perform (Proc.E_xchg (r, v))

    let compare_and_set r ~expected v =
      if cur.Memory.grant > 0 then ahead_cas cur r expected v
      else if cur.Memory.remaining = 0 then
        Effect.perform (Proc.E_cas (r, expected, v))
      else
        match cur.Memory.answers with
        | Event.A_cas (_, _, success) :: _ -> Memory.replay_take cur; success
        | _ -> Effect.perform (Proc.E_cas (r, expected, v))

    let pause () =
      if cur.Memory.remaining > 0 then Memory.replay_skip cur
      else Effect.perform Proc.E_pause
  end)

let mem arena : Mem_intf.mem = (module (val typed arena))
