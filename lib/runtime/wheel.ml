type status = Scheduler.status = Runnable | Halted | Crashed | Errored of exn

(* Calendar-queue entry.  [e_seq] is a global insertion counter: the heap
   order is (tick, insertion order), i.e. FIFO within a tick, which makes
   the whole run deterministic in its inputs.  [e_stamp] is the process's
   {!Scheduler.stamp} when it was queued: a crash changes the stamp, so
   the entry goes stale in O(1) and is dropped when popped. *)
type entry = { e_tick : int; e_seq : int; e_pid : int; e_stamp : int }

type t = {
  sched : Scheduler.t;
  faults : Fault.timeline;  (* its clock counts turns *)
  mutable heap : entry array;
  mutable hlen : int;
  mutable hseq : int;
  mutable now : int;
  mutable first_error : (int * exn) option;
  mutable live_peak : int;
}

let dummy_entry = { e_tick = 0; e_seq = 0; e_pid = 0; e_stamp = 0 }

let create ?(sink = Scheduler.null_sink) ?(faults = []) ~nprocs ~spawn () =
  { sched = Scheduler.of_spawn ~sink ~nprocs ~spawn;
    faults = Fault.timeline ~nprocs faults;
    heap = Array.make 64 dummy_entry;
    hlen = 0; hseq = 0; now = 0; first_error = None; live_peak = 0 }

(* ------------------------------------------------------------------ *)
(* Binary min-heap on (tick, insertion seq)                            *)

let entry_less a b =
  a.e_tick < b.e_tick || (a.e_tick = b.e_tick && a.e_seq < b.e_seq)

let heap_push t e =
  if t.hlen = Array.length t.heap then begin
    let bigger = Array.make (2 * t.hlen) dummy_entry in
    Array.blit t.heap 0 bigger 0 t.hlen;
    t.heap <- bigger
  end;
  let i = ref t.hlen in
  t.heap.(!i) <- e;
  t.hlen <- t.hlen + 1;
  if t.hlen > t.live_peak then t.live_peak <- t.hlen;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if entry_less t.heap.(!i) t.heap.(parent) then begin
      let tmp = t.heap.(parent) in
      t.heap.(parent) <- t.heap.(!i);
      t.heap.(!i) <- tmp;
      i := parent
    end
    else continue := false
  done

(* Remove and return the least entry of a non-empty heap. *)
let heap_pop t =
  let top = t.heap.(0) in
  t.hlen <- t.hlen - 1;
  if t.hlen > 0 then begin
    t.heap.(0) <- t.heap.(t.hlen);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < t.hlen && entry_less t.heap.(l) t.heap.(!smallest) then
        smallest := l;
      if r < t.hlen && entry_less t.heap.(r) t.heap.(!smallest) then
        smallest := r;
      if !smallest <> !i then begin
        let tmp = t.heap.(!smallest) in
        t.heap.(!smallest) <- t.heap.(!i);
        t.heap.(!i) <- tmp;
        i := !smallest
      end
      else continue := false
    done
  end;
  top

(* ------------------------------------------------------------------ *)
(* The pick policy over Scheduler.step                                 *)

let push t ~tick pid =
  heap_push t
    { e_tick = tick; e_seq = t.hseq; e_pid = pid;
      e_stamp = Scheduler.stamp t.sched pid };
  t.hseq <- t.hseq + 1

(* A runnable process that has a record is queued exactly once: it was
   queued when woken or recovered and is re-queued after each turn.  So
   only a fresh record needs queueing here. *)
let wake ?at t pid =
  let tick = match at with None -> t.now | Some a -> a in
  if tick < t.now then invalid_arg "Wheel.wake: tick in the past";
  if Scheduler.spawn t.sched pid then push t ~tick pid

(* The restarted incarnation re-enters the wheel at the current tick. *)
let recover t pid =
  if Scheduler.status t.sched pid = Crashed then begin
    Scheduler.recover t.sched pid;
    push t ~tick:t.now pid
  end

(* The pid of the next live entry, dropping stale ones; -1 when the heap
   has drained. *)
let rec next t =
  if t.hlen = 0 then -1
  else begin
    let e = heap_pop t in
    if Scheduler.stamp t.sched e.e_pid <> e.e_stamp then next t
    else begin
      if e.e_tick > t.now then t.now <- e.e_tick;
      e.e_pid
    end
  end

(* One turn: one step, then park the process at the next tick, or on its
   sleep timer so it leaves the active set until the clock gets there.
   A step granted a run-ahead of [ahead] accesses stands for one turn
   per inline access as well: the clock and the fault clock move on by
   that many, exactly as if each had been a turn of its own. *)
let turn t pid ~ahead =
  let result =
    if ahead <= 0 then Scheduler.step t.sched pid
    else begin
      let result = Scheduler.step_ahead t.sched pid ~ahead in
      let taken = Scheduler.ahead_taken t.sched in
      t.now <- t.now + taken;
      Fault.skip t.faults taken;
      result
    end
  in
  match result with
  | Scheduler.Progress -> push t ~tick:(t.now + 1) pid
  | Scheduler.Asleep d -> push t ~tick:(t.now + max 1 d) pid
  | Scheduler.Finished -> (
    match (Scheduler.status t.sched pid, t.first_error) with
    | Errored e, None -> t.first_error <- Some (pid, e)
    | _ -> ())
  | Scheduler.Not_runnable -> ()

type stopped = Quiescent | Out_of_turns

let run ?(max_turns = max_int) t =
  Fault.run t.faults ~crash:(Scheduler.crash t.sched) ~recover:(recover t)
    (fun turns ->
      if turns >= max_turns then Fault.Stop Out_of_turns
      else
        let pid = next t in
        if pid < 0 then Fault.Idle Quiescent
        else begin
          (* With nothing else queued, stale entries included, no other
             process can be picked before the next fault point or the
             turn limit: run the popped one ahead until then. *)
          let ahead =
            if t.hlen > 0 then 0
            else
              min (Fault.next_due t.faults - turns - 1) (max_turns - turns - 1)
          in
          turn t pid ~ahead;
          Fault.Ran
        end)

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)

let now t = t.now
let turns t = Fault.clock t.faults
let nprocs t = Scheduler.nprocs t.sched
let status t = Scheduler.status t.sched
let region t = Scheduler.region t.sched
let steps_taken t = Scheduler.steps_taken t.sched
let total_steps t = Scheduler.total_steps t.sched
let spawned t = Scheduler.spawned t.sched
let live_peak t = t.live_peak
let first_error t = t.first_error
