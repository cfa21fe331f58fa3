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

let now () = Monotonic_clock.now ()

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
  let module M = (val arena.Native_harness.mem) in
  let module L = A.Make (M) in
  let inst = L.create p in
  let scratch = M.alloc ~name:"svc.scratch" ~width:8 ~init:0 () in
  (* The exclusion witness lives outside [M]: it models the service's
     clients, not the lock, so it must not be counted.  It is
     deliberately non-atomic — lost updates would show as a shortfall
     iff mutual exclusion broke (same trick as
     Native_harness.contended). *)
  let witness = ref 0 in
  let hists = Array.init config.domains (fun _ -> Latency_hist.create ()) in
  let rec_hists = Array.init config.domains (fun _ -> Latency_hist.create ()) in
  let rec_rmr_tot = Array.make config.domains 0 in
  let rec_rmr_max = Array.make config.domains 0 in
  let rec_counts = Array.make config.domains 0 in
  let worker me =
    let think =
      Native_harness.think ~seed:config.seed ~pid:me ~mean:config.mean_think
    in
    (* A separate stream for crash points so adding injection does not
       perturb the think-time sequence of crash-free runs. *)
    let crash_st = Random.State.make [| Ixmath.mix_seed config.seed me; 0x0c |] in
    let hist = hists.(me) in
    fun () ->
      for _ = 1 to config.rounds do
        think ();
        let t0 = now () in
        L.lock inst ~me;
        let t1 = now () in
        Latency_hist.record hist (Int64.to_int (Int64.sub t1 t0));
        (* Cooperative crash-while-holding: a domain cannot be killed, but
           the Golab–Ramaraju model only requires that the incarnation's
           {e local} state is lost and the process re-runs [lock] from the
           top — which is exactly what abandoning the acquisition (the
           completed call's locals are dead anyway) and calling [lock]
           again does.  The re-entry is the recovery path; its latency and
           its RMR delta (own Instr_mem slot, written by this very domain,
           so coherent mid-run) are recorded separately.  The witness still
           increments once per critical section. *)
        if
          config.crash_every > 0
          && Random.State.int crash_st config.crash_every = 0
        then begin
          (* The crash also destroys the incarnation's cache. *)
          Instr_mem.evict instr ~me;
          let rmr0 = (Instr_mem.per_domain instr).(me).Instr_mem.rmr in
          let r0 = now () in
          L.lock inst ~me;
          let r1 = now () in
          Latency_hist.record rec_hists.(me) (Int64.to_int (Int64.sub r1 r0));
          let d = (Instr_mem.per_domain instr).(me).Instr_mem.rmr - rmr0 in
          rec_rmr_tot.(me) <- rec_rmr_tot.(me) + d;
          if d > rec_rmr_max.(me) then rec_rmr_max.(me) <- d;
          rec_counts.(me) <- rec_counts.(me) + 1
        end;
        witness := !witness + 1;
        for k = 1 to config.cs_len do
          M.write scratch (k land 255)
        done;
        L.unlock inst ~me
      done
  in
  let elapsed_ns = Native_harness.run arena worker in
  let lat = Native_harness.latency hists in
  let rec_lat = Native_harness.latency rec_hists in
  let recoveries = Array.fold_left ( + ) 0 rec_counts in
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
