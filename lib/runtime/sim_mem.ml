open Cfc_base

let mem arena : Mem_intf.mem =
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

    (* During a suspension rebuild the arena's cursor answers the
       replayed prefix; anything it cannot answer is performed. *)
    let read r =
      match Memory.replay_pending cur with
      | Event.A_read v :: _ -> Memory.replay_take cur; v
      | _ -> Effect.perform (Proc.E_read r)

    let write r v =
      match Memory.replay_pending cur with
      | Event.A_write _ :: _ -> Memory.replay_take cur
      | _ -> Effect.perform (Proc.E_write (r, v))

    let write_field r ~index ~width v =
      match Memory.replay_pending cur with
      | Event.A_field _ :: _ -> Memory.replay_take cur
      | _ -> Effect.perform (Proc.E_write_field (r, index, width, v))

    let bit_op r op =
      match Memory.replay_pending cur with
      | Event.A_bit (_, ret) :: _ -> Memory.replay_take cur; ret
      | _ -> Effect.perform (Proc.E_bit_op (r, op))

    let fetch_and_store r v =
      match Memory.replay_pending cur with
      | Event.A_xchg (_, old) :: _ -> Memory.replay_take cur; old
      | _ -> Effect.perform (Proc.E_xchg (r, v))

    let compare_and_set r ~expected v =
      match Memory.replay_pending cur with
      | Event.A_cas (_, _, success) :: _ -> Memory.replay_take cur; success
      | _ -> Effect.perform (Proc.E_cas (r, expected, v))

    let pause () =
      if Memory.replaying cur then Memory.replay_skip cur
      else Effect.perform Proc.E_pause
  end : Mem_intf.MEM)
