(** The Mellor-Crummey–Scott queue lock (1991): the canonical
    {e local-spin} mutual exclusion algorithm, included to make the
    paper's §1.2 remote-access discussion (Yang–Anderson [YA93])
    executable: under the write-invalidate cache model of
    {!Cfc_core.Measures.Online.remote}, an MCS acquisition performs a
    bounded number of remote references at {e any} contention level —
    the waiter spins on a register only its predecessor ever writes —
    whereas a test-and-set lock's spinning is remote on every iteration.

    Outside the paper's atomic-register model: it needs word-sized
    fetch-and-store and compare-and-swap (queue tail), so it does not
    appear in {!Registry.register_model} and the Theorem 1/2 bounds do
    not apply to it.

    Queue encoding over registers: [tail] and [next.(i)] hold process
    ids shifted by one (0 = null); [locked.(i)] is the spin flag of
    process [i], written only by [i]'s predecessor.

    Contention-free cost: clear next, arm flag, exchange tail (entry),
    read next, compare-and-swap tail (exit) — 5 steps over 3 registers. *)

open Cfc_base

let name = "mcs-lock"
let supports (p : Mutex_intf.params) = p.Mutex_intf.n >= 1
let atomicity (p : Mutex_intf.params) = Ixmath.bits_needed p.Mutex_intf.n
let predicted_cf_steps (_ : Mutex_intf.params) = Some 5
let predicted_cf_registers (_ : Mutex_intf.params) = Some 3

let recovery (_ : Mutex_intf.params) = None

module Make (M : Mem_intf.MEM) = struct
  type t = { tail : M.reg; next : M.reg array; locked : M.reg array }

  let create (p : Mutex_intf.params) =
    let n = p.Mutex_intf.n in
    let width = Ixmath.bits_needed n in
    {
      tail = M.alloc ~name:"mcs.tail" ~width ~init:0 ();
      next = M.alloc_array ~name:"mcs.next" ~width ~init:0 n;
      locked = M.alloc_array ~name:"mcs.locked" ~width:1 ~init:0 n;
    }

  let lock t ~me =
    let id = me + 1 in
    M.write t.next.(me) 0;
    (* Arm the spin flag before publishing the node: the predecessor may
       clear it at any moment after the exchange below. *)
    M.write t.locked.(me) 1;
    let pred = M.fetch_and_store t.tail id in
    if pred <> 0 then begin
      M.write t.next.(pred - 1) id;
      (* Local spin: only the predecessor ever writes locked.(me). *)
      while M.read t.locked.(me) = 1 do
        M.pause ()
      done
    end

  let unlock t ~me =
    let id = me + 1 in
    let succ = M.read t.next.(me) in
    if succ <> 0 then M.write t.locked.(succ - 1) 0
    else if not (M.compare_and_set t.tail ~expected:id 0) then begin
      (* A successor won the exchange but has not linked yet. *)
      let succ = ref (M.read t.next.(me)) in
      while !succ = 0 do
        M.pause ();
        succ := M.read t.next.(me)
      done;
      M.write t.locked.(!succ - 1) 0
    end
end
