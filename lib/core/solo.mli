(** The one driver of contention-free runs.

    The paper defines contention-free complexity over one kind of run: a
    solo run of one process for mutual exclusion, detection, consensus
    and renaming (§2.2), a sequential run for naming (§3.2).  Every
    harness measures it here, on the {!Cfc_runtime.Wheel}:

    - a run is a list of pids woken one after the other on a fresh
      wheel, each once the wheel is quiescent again — [[me]] is a solo
      run, [[0; …; n-1]] the sequential run;
    - one {!Measures.Online} fold is shared by all the runs and
      {!Measures.Online.reset} before each; no trace is recorded;
    - after each run the registers in {!Measures.Online.touched} are
      {!Cfc_runtime.Register.reset}, so the next run starts from the
      initial arena while a run costs O(its own path), plus the wheel's
      O(n)-word pid table;
    - decisions are read off the fold ({!Measures.Online.decision}).

    A process error is repeated as a traced run from the same fresh
    registers and raised as {!Cfc_runtime.Runner.Process_error} carrying
    the failing process's last five events.  Runs are not bounded: the
    solo and sequential runs of the registry's algorithms terminate. *)

val each :
  nprocs:int -> spawn:(int -> unit -> unit) -> int list ->
  (Measures.Online.t -> pid:int -> 'a) -> 'a array
(** [each ~nprocs ~spawn pids read]: one solo run per listed pid, in
    order, each read by [read online ~pid] as soon as it ends.  Process
    [i] runs [spawn i], called once per run of [i]. *)

val sequential :
  nprocs:int -> spawn:(int -> unit -> unit) ->
  (Measures.Online.t -> 'a) -> 'a
(** The sequential run of pids [0 .. nprocs-1], read once at its end. *)
