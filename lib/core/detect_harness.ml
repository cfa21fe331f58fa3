open Cfc_runtime
open Cfc_mutex

type cf_result = {
  max : Measures.sample;
  per_process : Measures.sample array;
  atomicity_declared : int;
  atomicity_observed : int;
}

let instantiate (module D : Mutex_intf.DETECTOR) (p : Mutex_intf.params) mem =
  if not (D.supports p) then
    invalid_arg
      (Printf.sprintf "%s does not support n=%d l=%d" D.name p.Mutex_intf.n
         p.Mutex_intf.l);
  let module M = (val mem : Cfc_base.Mem_intf.MEM) in
  let module D' = D.Make (M) in
  let inst = D'.create p in
  fun me () ->
    Proc.region Event.Trying;
    let alone = D'.detect inst ~me in
    Proc.decide (if alone then 1 else 0)

let system detector (p : Mutex_intf.params) () =
  Adversary.arena ~nprocs:p.Mutex_intf.n (instantiate detector p)

let contention_free (module D : Mutex_intf.DETECTOR) (p : Mutex_intf.params) =
  let n = p.Mutex_intf.n in
  let memory = Memory.create () in
  let spawn = instantiate (module D) p (Sim_mem.mem memory) in
  let per_process =
    Solo.each ~nprocs:n ~spawn (Mutex_harness.sample_pids n)
      (fun online ~pid ->
        (match
           Spec.solo_wins ~at:(Measures.Online.events_seen online) ~pid
             (Measures.Online.decision online ~pid)
         with
        | None -> ()
        | Some v ->
          invalid_arg (Format.asprintf "%s: %a" D.name Spec.pp_violation v));
        Measures.Online.process_total online ~pid)
  in
  {
    max = Array.fold_left Measures.max_sample Measures.zero per_process;
    per_process;
    atomicity_declared = D.atomicity p;
    atomicity_observed = Memory.max_width memory;
  }

let run ?max_steps ?crash_at ~pick detector (p : Mutex_intf.params) =
  Adversary.outcome
    (Adversary.run ?max_steps ?crash_at ~pick ~nprocs:p.Mutex_intf.n
       (instantiate detector p))

let wc_estimate ~seeds ((module D : Mutex_intf.DETECTOR) as detector)
    (p : Mutex_intf.params) =
  let n = p.Mutex_intf.n in
  (* Detectors are wait-free (O(log n / l) steps each), so a budget linear
     in n with generous headroom lets every run complete — the default
     1M would stall large-n estimates. *)
  Adversary.worst_case ~alg:D.name ~max_steps:(max 1_000_000 (200 * n))
    ~seeds ~nprocs:n (instantiate detector p) (fun online ->
      Array.fold_left Measures.max_sample Measures.zero
        (Measures.Online.per_process online))
