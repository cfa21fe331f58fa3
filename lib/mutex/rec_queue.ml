(** Recoverable queue lock: the crash–recovery companion of {!Mcs}, in
    the Golab–Ramaraju recoverable-mutex model (crash wipes local state,
    shared memory persists, the restarted process re-runs its program
    from the top), assembled Golab-style from two explicit components —
    a persistent FIFO task queue and per-process promotion/signal cells.

    A classical MCS enqueue is unrecoverable here: the predecessor comes
    back only as the return value of the fetch-and-store on the tail, so
    a crash between the exchange and persisting that value loses the
    only copy of the information needed to link the queue — the
    predecessor's release then blocks forever (this exact bug is the
    broken model-checker fixture refuted by the fault exploration).  The
    queue is instead one {e packed} register [q] (§1.3-style
    field-packing, as in {!Ms_packed}): a FIFO of process ids in
    [⌈log2 (n+1)⌉]-bit slots, slot 0 the head, 0 the empty slot, ids
    shifted by one.  Enqueue and dequeue are then single CASes, so every
    crash leaves [q] consistent, and membership and headship are pure
    functions of one read — the queue is its own recovery log, and the
    per-incarnation state a restarted process needs is re-derived from
    that read.

    The signal cell [sig.(i)] is only a wakeup hint: entry to the
    critical section is always validated by [head q = i + 1].  A waiter
    that wakes on a stale hint clears the cell and re-validates; because
    a releaser dequeues {e before} signalling, the re-validation read
    cannot miss a real grant.  A releaser that crashes between the
    dequeue and the signal leaves the new head unsignalled; any later
    [lock] (in particular the crashed process's own restarted
    incarnation) repairs the lost wakeup before enqueueing itself.

    Like {!Mcs} and {!Rec_tas} this lives outside the paper's
    read/write-register model (CAS; excluded from
    [Registry.register_model]).  Packing bounds it to
    [n·⌈log2 (n+1)⌉ <= 62] (n <= 15 in practice).

    Contention-free (crash-free) solo cost: read + CAS-enqueue (entry),
    read + CAS-dequeue + signal clear (exit) — 5 steps on 2 registers.
    Recovery-path cost (asserted against
    {!Cfc_core.Measures.Online.recovery_paths}): 1 step when the crashed
    incarnation held the lock (one read shows it is still head), 2 when
    it did not (read + re-enqueue CAS); crashes mid-exit cost one or the
    other depending on whether the dequeue took effect.  One register —
    hence one recovery remote reference — in every case. *)

open Cfc_base

let name = "recoverable-queue"

let field_bits (p : Mutex_intf.params) = Ixmath.bits_needed p.Mutex_intf.n
let queue_bits (p : Mutex_intf.params) = p.Mutex_intf.n * field_bits p

let supports (p : Mutex_intf.params) =
  p.Mutex_intf.n >= 1 && queue_bits p <= 62

let atomicity = queue_bits
let predicted_cf_steps (_ : Mutex_intf.params) = Some 5
let predicted_cf_registers (_ : Mutex_intf.params) = Some 2

let recovery (_ : Mutex_intf.params) =
  Some
    {
      Mutex_intf.rec_steps_held = 1;
      rec_steps_not_held = 2;
      rec_registers_held = 1;
      rec_registers_not_held = 1;
    }

module Make (M : Mem_intf.MEM) = struct
  type t = { n : int; fb : int; q : M.reg; signal : M.reg array }

  let create (p : Mutex_intf.params) =
    let n = p.Mutex_intf.n in
    (* Fail loudly at the packing cap: without this check the oversized
       allocation surfaces as a backend-specific width error
       ("Register.make recq.q: width 80" on the simulator, a bare
       "Native_mem: width" natively) that names neither the algorithm
       nor the cap.  Registry-driven sweeps gate on [supports] and never
       get here; a direct caller gets the full story. *)
    if not (supports p) then
      invalid_arg
        (Printf.sprintf
           "%s: n = %d exceeds the packed-word queue cap (n slots of \
            bits_needed(n) bits each: %d * %d = %d bits > 62); the packed \
            encoding supports n <= 15"
           name n n (field_bits p) (queue_bits p));
    {
      n;
      fb = field_bits p;
      q = M.alloc ~name:"recq.q" ~width:(queue_bits p) ~init:0 ();
      signal = M.alloc_array ~name:"recq.sig" ~width:1 ~init:0 n;
    }

  (* Pure views of one queue word. *)
  let slot t w s = (w lsr (s * t.fb)) land ((1 lsl t.fb) - 1)
  let head t w = slot t w 0

  let member t w id =
    let rec go s = s < t.n && (slot t w s = id || go (s + 1)) in
    go 0

  (* First free slot; the queue holds each of the n processes at most
     once, so it never overflows. *)
  let enqueue t w id =
    let rec go s = if slot t w s = 0 then s else go (s + 1) in
    w lor (id lsl (go 0 * t.fb))

  let dequeue t w = w lsr t.fb

  (* Spin on the own signal cell until it is set, then validate against
     the queue: a releaser dequeues before signalling, so on a genuine
     grant the head re-read cannot miss; a stale hint (a helper's repair,
     or one left over from a crashed exit) is cleared and re-validated. *)
  let rec wait t ~me =
    let id = me + 1 in
    while M.read t.signal.(me) = 0 do
      M.pause ()
    done;
    if head t (M.read t.q) = id then ()
    else begin
      M.write t.signal.(me) 0;
      if head t (M.read t.q) = id then () else wait t ~me
    end

  let rec lock t ~me =
    let id = me + 1 in
    let w = M.read t.q in
    if head t w = id then ()
      (* Head of the queue: holding already (a restarted incarnation that
         crashed in or after its critical section) or freshly granted. *)
    else if member t w id then wait t ~me
      (* Enqueued by a crashed incarnation: resume waiting. *)
    else begin
      (* Repair a lost wakeup before enqueueing: a releaser that crashed
         between its dequeue and its signal left the current head
         unsignalled.  A spurious signal is harmless (the waiter
         validates against the queue), so staleness of [w] is fine. *)
      (match head t w with
      | 0 -> ()
      | h -> if M.read t.signal.(h - 1) = 0 then M.write t.signal.(h - 1) 1);
      if M.compare_and_set t.q ~expected:w (enqueue t w id) then
        if head t w = 0 then () (* empty queue: enqueueing is entering *)
        else wait t ~me
      else lock t ~me
    end

  let unlock t ~me =
    (* Dequeue (single CAS, retried against concurrent enqueues — they
       never change the head, which is still [me + 1]), then wake the
       new head, then retire the own hint cell for the next passage. *)
    let rec pop () =
      let w = M.read t.q in
      if M.compare_and_set t.q ~expected:w (dequeue t w) then w
      else pop ()
    in
    let w = pop () in
    (match head t (dequeue t w) with
    | 0 -> ()
    | h -> M.write t.signal.(h - 1) 1);
    M.write t.signal.(me) 0
end
