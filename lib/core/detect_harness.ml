open Cfc_runtime
open Cfc_mutex

type cf_result = {
  max : Measures.sample;
  per_process : Measures.sample array;
  atomicity_declared : int;
  atomicity_observed : int;
}

let instantiate (module D : Mutex_intf.DETECTOR) (p : Mutex_intf.params) =
  if not (D.supports p) then
    invalid_arg
      (Printf.sprintf "%s does not support n=%d l=%d" D.name p.Mutex_intf.n
         p.Mutex_intf.l);
  let memory = Memory.create () in
  let module M = (val Sim_mem.mem memory) in
  let module D' = D.Make (M) in
  let inst = D'.create p in
  let proc ~me () =
    Proc.region Event.Trying;
    let alone = D'.detect inst ~me in
    Proc.decide (if alone then 1 else 0)
  in
  (memory, proc)

let contention_free (module D : Mutex_intf.DETECTOR) (p : Mutex_intf.params) =
  let n = p.Mutex_intf.n in
  let memory, proc = instantiate (module D) p in
  let observed = Memory.max_width memory in
  let procs = Array.init n (fun i -> proc ~me:i) in
  let prev = ref None in
  let per_process =
    List.map
      (fun me ->
        Mutex_harness.reset_touched memory !prev;
        let out = Runner.run ~memory ~pick:(Schedule.solo me) procs in
        prev := Some out.Runner.trace;
        (match Spec.solo_wins out.Runner.trace ~nprocs:n ~pid:me with
        | None -> ()
        | Some v ->
          invalid_arg (Format.asprintf "%s: %a" D.name Spec.pp_violation v));
        Measures.Online.process_total
          (Measures.Online.of_trace ~nprocs:n out.Runner.trace)
          ~pid:me)
      (Mutex_harness.sample_pids n)
    |> Array.of_list
  in
  {
    max = Array.fold_left Measures.max_sample Measures.zero per_process;
    per_process;
    atomicity_declared = D.atomicity p;
    atomicity_observed = observed;
  }

let system (module D : Mutex_intf.DETECTOR) (p : Mutex_intf.params) () =
  let memory, proc = instantiate (module D) p in
  (memory, Array.init p.Mutex_intf.n (fun me -> proc ~me))

let run ?max_steps ?crash_at ~pick (module D : Mutex_intf.DETECTOR)
    (p : Mutex_intf.params) =
  let memory, proc = instantiate (module D) p in
  let procs = Array.init p.Mutex_intf.n (fun me -> proc ~me) in
  Runner.run ?max_steps ?crash_at ~memory ~pick procs

let wc_estimate ~seeds detector (p : Mutex_intf.params) =
  let n = p.Mutex_intf.n in
  (* Detectors are wait-free (O(log n / l) steps each), so a budget linear
     in n with generous headroom guarantees the run completes — the
     default 1M would silently truncate large-n estimates. *)
  let max_steps = max 1_000_000 (200 * n) in
  let sample_of out =
    if not out.Runner.completed then
      invalid_arg "Detect_harness.wc_estimate: step budget exhausted";
    Array.fold_left Measures.max_sample Measures.zero
      (Measures.Online.per_process
         (Measures.Online.of_trace ~nprocs:n out.Runner.trace))
  in
  let with_pick mk = sample_of (run ~max_steps ~pick:(mk ()) detector p) in
  let base = with_pick Schedule.round_robin in
  List.fold_left
    (fun acc seed ->
      Measures.max_sample acc (with_pick (fun () -> Schedule.random ~seed)))
    base seeds
