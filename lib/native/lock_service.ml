open Cfc_base
open Cfc_mutex

type config = {
  domains : int;
  rounds : int;
  mean_think : int;
  cs_len : int;
  seed : int;
  crash_every : int;
}

let default = { domains = 2; rounds = 2_000; mean_think = 10; cs_len = 3;
                seed = 42; crash_every = 0 }

type result = {
  acquisitions : int;
  elapsed_ns : int;
  throughput : float;
  p50_ns : float;
  p90_ns : float;
  p99_ns : float;
  max_ns : int;
  counters : Instr_mem.counters;
  rmr_per_acq : float;
  exclusion_ok : bool;
  recoveries : int;
  recovery_p50_ns : float;
  recovery_p99_ns : float;
  recovery_max_ns : int;
  recovery_rmr_mean : float;
  recovery_rmr_max : int;
}

let run ?instrument (module A : Mutex_intf.ALG) config =
  if config.domains < 1 then invalid_arg "Lock_service.run: domains < 1";
  if config.rounds < 0 then invalid_arg "Lock_service.run: rounds < 0";
  if config.crash_every < 0 then
    invalid_arg "Lock_service.run: crash_every < 0";
  (* Algorithms are parameterized by n >= 2; a solo service still
     instantiates for two so the code path is the real one. *)
  let p = Mutex_intf.params (max 2 config.domains) in
  if not (A.supports p) then
    invalid_arg (Printf.sprintf "%s: unsupported params" A.name);
  if config.crash_every > 0 && A.recovery p = None then
    invalid_arg
      (Printf.sprintf "%s: crash injection needs a recoverable lock" A.name);
  let arena = Native_harness.arena ?instrument ~domains:config.domains () in
  let instr = arena.Native_harness.instr in
  let module L = A.Make ((val arena.Native_harness.mem)) in
  let inst = L.create p in
  let cs =
    Cfc_core.Client.scratch ~name:"svc.scratch" ~cs_len:config.cs_len
      arena.Native_harness.mem
  in
  (* The exclusion witness lives outside [M]: it models the service's
     clients, not the lock, so it must not be counted.  It is
     deliberately non-atomic — lost updates would show as a shortfall
     iff mutual exclusion broke (same trick as
     Native_harness.contended). *)
  let witness = ref 0 in
  let critical me =
    witness := !witness + 1;
    cs me
  in
  let hists = Array.init config.domains (fun _ -> Latency_hist.create ()) in
  let rec_hists = Array.init config.domains (fun _ -> Latency_hist.create ()) in
  let rec_rmr_tot = Array.make config.domains 0 in
  let rec_rmr_max = Array.make config.domains 0 in
  let worker me =
    (* A separate stream for crash points so adding injection does not
       perturb the think-time sequence of crash-free runs. *)
    let crash_st = Random.State.make [| Ixmath.mix_seed config.seed me; 0x0c |] in
    let hist = hists.(me) in
    (* The crash hook: the cooperative crash-while-holding of
       [crash_every], whose re-entry is the recovery path.  Its RMR delta
       reads this domain's own Instr_mem slot, so it is coherent
       mid-run.  The witness still counts one critical section. *)
    let acquired t0 =
      Latency_hist.record hist (Native_harness.now_ns () - t0);
      if
        config.crash_every > 0
        && Random.State.int crash_st config.crash_every = 0
      then begin
        (* The crash also destroys the incarnation's cache. *)
        Instr_mem.evict instr ~me;
        let rmr0 = (Instr_mem.per_domain instr).(me).Instr_mem.rmr in
        let r0 = Native_harness.now_ns () in
        L.lock inst ~me;
        Latency_hist.record rec_hists.(me) (Native_harness.now_ns () - r0);
        let d = (Instr_mem.per_domain instr).(me).Instr_mem.rmr - rmr0 in
        rec_rmr_tot.(me) <- rec_rmr_tot.(me) + d;
        if d > rec_rmr_max.(me) then rec_rmr_max.(me) <- d
      end
    in
    let rig =
      Native_harness.rig ~seed:config.seed ~pid:me ~mean:config.mean_think
        ~acquired
    in
    fun () ->
      for _ = 1 to config.rounds do
        Cfc_core.Client.cycle rig ~lock:L.lock ~unlock:L.unlock inst ~me
          critical me
      done
  in
  let elapsed_ns = Native_harness.run arena worker in
  let lat = Native_harness.latency hists in
  let rec_lat = Native_harness.latency rec_hists in
  let recoveries = rec_lat.Native_harness.count in
  let acquisitions = config.domains * config.rounds in
  let counters = Instr_mem.totals instr in
  let per v n = if n = 0 then 0.0 else Float.of_int v /. Float.of_int n in
  {
    acquisitions;
    elapsed_ns;
    throughput = Native_harness.per_second acquisitions ~elapsed_ns;
    p50_ns = lat.Native_harness.p50_ns;
    p90_ns = lat.Native_harness.p90_ns;
    p99_ns = lat.Native_harness.p99_ns;
    max_ns = lat.Native_harness.max_ns;
    counters;
    rmr_per_acq = per counters.Instr_mem.rmr acquisitions;
    exclusion_ok = !witness = acquisitions;
    recoveries;
    recovery_p50_ns = rec_lat.Native_harness.p50_ns;
    recovery_p99_ns = rec_lat.Native_harness.p99_ns;
    recovery_max_ns = rec_lat.Native_harness.max_ns;
    recovery_rmr_mean = per (Array.fold_left ( + ) 0 rec_rmr_tot) recoveries;
    recovery_rmr_max = Array.fold_left max 0 rec_rmr_max;
  }
