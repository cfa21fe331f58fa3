type status = Scheduler.status = Runnable | Halted | Crashed | Errored of exn

(* The calendar queue: a binary min-heap of entries [(tick, seq, pid,
   stamp)], held struct-of-arrays in four [int array]s so that queueing
   and sifting store only immediate ints and allocate nothing.  [seq] is
   a global insertion counter: the heap order is (tick, insertion order),
   i.e. FIFO within a tick, which makes the whole run deterministic in
   its inputs.  [stamp] is the process's {!Scheduler.stamp} when it was
   queued: a crash changes the stamp, so the entry goes stale in O(1) and
   is dropped when popped. *)
type t = {
  sched : Scheduler.t;
  faults : Fault.timeline;  (* its clock counts turns *)
  mutable h_tick : int array;
  mutable h_seq : int array;
  mutable h_pid : int array;
  mutable h_stamp : int array;
  mutable hlen : int;
  mutable hseq : int;
  mutable now : int;
  mutable first_error : (int * exn) option;
  mutable live_peak : int;
}

let create ?(sink = Scheduler.null_sink) ?(faults = []) ~nprocs ~spawn () =
  { sched = Scheduler.of_spawn ~sink ~nprocs ~spawn;
    faults = Fault.timeline ~nprocs faults;
    h_tick = Array.make 64 0; h_seq = Array.make 64 0;
    h_pid = Array.make 64 0; h_stamp = Array.make 64 0;
    hlen = 0; hseq = 0; now = 0; first_error = None; live_peak = 0 }

(* ------------------------------------------------------------------ *)
(* Binary min-heap on (tick, insertion seq)                            *)

(* Every [seq] is distinct, so the order is total and the pop sequence
   does not depend on how the heap lays its entries out. *)
let[@inline] less t i ~tick ~seq =
  let ti = Array.unsafe_get t.h_tick i in
  ti < tick || (ti = tick && Array.unsafe_get t.h_seq i < seq)

let[@inline] set t i ~tick ~seq ~pid ~stamp =
  Array.unsafe_set t.h_tick i tick;
  Array.unsafe_set t.h_seq i seq;
  Array.unsafe_set t.h_pid i pid;
  Array.unsafe_set t.h_stamp i stamp

let[@inline] move t ~src ~dst =
  set t dst ~tick:(Array.unsafe_get t.h_tick src)
    ~seq:(Array.unsafe_get t.h_seq src) ~pid:(Array.unsafe_get t.h_pid src)
    ~stamp:(Array.unsafe_get t.h_stamp src)

let grow t =
  let n = Array.length t.h_tick in
  let bigger a =
    let b = Array.make (2 * n) 0 in
    Array.blit a 0 b 0 n;
    b
  in
  t.h_tick <- bigger t.h_tick;
  t.h_seq <- bigger t.h_seq;
  t.h_pid <- bigger t.h_pid;
  t.h_stamp <- bigger t.h_stamp

(* Sift a hole up from the end instead of swapping: each level moves one
   parent down, and the new entry is written once, where the hole
   stops. *)
let heap_push t ~tick ~seq ~pid ~stamp =
  if t.hlen = Array.length t.h_tick then grow t;
  let i = ref t.hlen in
  t.hlen <- t.hlen + 1;
  if t.hlen > t.live_peak then t.live_peak <- t.hlen;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if less t parent ~tick ~seq then continue := false
    else begin
      move t ~src:parent ~dst:!i;
      i := parent
    end
  done;
  set t !i ~tick ~seq ~pid ~stamp

(* Remove the least entry of a non-empty heap (read it at slot 0 first):
   the last entry fills the hole left at the root, sifted down the same
   way. *)
let heap_pop t =
  t.hlen <- t.hlen - 1;
  let n = t.hlen in
  if n > 0 then begin
    let tick = Array.unsafe_get t.h_tick n
    and seq = Array.unsafe_get t.h_seq n in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < n && less t r ~tick:t.h_tick.(l) ~seq:t.h_seq.(l) then r
          else l
        in
        if less t c ~tick ~seq then begin
          move t ~src:c ~dst:!i;
          i := c
        end
        else continue := false
      end
    done;
    move t ~src:n ~dst:!i
  end

(* ------------------------------------------------------------------ *)
(* The pick policy over Scheduler.step                                 *)

let push t ~tick pid =
  heap_push t ~tick ~seq:t.hseq ~pid ~stamp:(Scheduler.stamp t.sched pid);
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
    let tick = t.h_tick.(0) and pid = t.h_pid.(0) and stamp = t.h_stamp.(0) in
    heap_pop t;
    if Scheduler.stamp t.sched pid <> stamp then next t
    else begin
      if tick > t.now then t.now <- tick;
      pid
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
