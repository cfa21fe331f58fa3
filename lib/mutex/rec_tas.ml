(** Recoverable test-and-set lock: the crash–recovery companion of
    {!Tas_lock}, in the Golab–Ramaraju recoverable-mutex model (crash
    wipes local state, shared memory persists, the restarted process
    re-runs its program from the top).

    A single owner register holds [0] (free) or [me + 1] (held by [me]),
    acquired by compare-and-swap.  Because winning the CAS and recording
    ownership are one atomic step, there is no window in which a crash
    loses the lock: the recovery path simply re-reads the owner register
    — if a previous incarnation of this process holds the lock it
    re-enters the critical section directly, otherwise it competes
    afresh.  Recovery and first acquisition share one idempotent code
    path, so the algorithm needs no explicit recover section.

    Like {!Tas_lock} this lives outside the paper's read/write-register
    model (it is excluded from [Registry.register_model]); the Theorem 1
    lower bound does not apply to it.

    Contention-free (crash-free) solo cost: 1 read + 1 CAS + 1 write
    = 3 steps on 1 register.  Recovery-path cost (checked by tests via
    {!Cfc_core.Measures.Online.recovery_paths}): 1 step when the crashed
    incarnation held the lock, 2 steps when it did not. *)

open Cfc_base

let name = "recoverable-tas"
let supports (p : Mutex_intf.params) = p.Mutex_intf.n >= 1
let atomicity (p : Mutex_intf.params) = Ixmath.bits_needed p.Mutex_intf.n
let predicted_cf_steps (_ : Mutex_intf.params) = Some 3
let predicted_cf_registers (_ : Mutex_intf.params) = Some 1

(* Closed forms for the solo recovery path, asserted against
   [Measures.Online.recovery_paths] by tests and the recoverable bench. *)
let recovery_steps_held = 1
let recovery_steps_not_held = 2

let recovery (_ : Mutex_intf.params) =
  Some
    {
      Mutex_intf.rec_steps_held = recovery_steps_held;
      rec_steps_not_held = recovery_steps_not_held;
      rec_registers_held = 1;
      rec_registers_not_held = 1;
    }

module Make (M : Mem_intf.MEM) = struct
  type t = { owner : M.reg }

  let create (p : Mutex_intf.params) =
    { owner =
        M.alloc ~name:"rectas.owner"
          ~width:(Ixmath.bits_needed p.Mutex_intf.n)
          ~init:0 () }

  let lock t ~me =
    (* The read is what makes the lock recoverable: a restarted
       incarnation that already holds the lock must re-enter, not
       deadlock competing against itself. *)
    if M.read t.owner = me + 1 then ()
    else
      while not (M.compare_and_set t.owner ~expected:0 (me + 1)) do
        M.pause ()
      done

  let unlock t ~me:_ = M.write t.owner 0
end
