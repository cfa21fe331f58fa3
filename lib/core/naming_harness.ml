open Cfc_runtime
open Cfc_naming

type cf_result = {
  max : Measures.sample;
  per_process : Measures.sample array;
  names : int array;
}

let instantiate (module A : Naming_intf.ALG) ~n mem =
  if not (A.supports ~n) then
    invalid_arg (Printf.sprintf "%s does not support n=%d" A.name n);
  let module M = (val mem : Cfc_base.Mem_intf.MEM) in
  let module N = A.Make (M) in
  let inst = N.create ~n in
  let proc () =
    Proc.region Event.Trying;
    let name = N.run inst in
    Proc.decide name
  in
  (* Identical processes: every pid runs the same closure. *)
  fun (_ : int) -> proc

let check_names (module A : Naming_intf.ALG) trace ~n =
  match Spec.unique_names trace ~nprocs:n ~n with
  | None -> ()
  | Some v ->
    invalid_arg (Format.asprintf "%s: %a" A.name Spec.pp_violation v)

let system alg ~n () =
  let memory = Memory.create () in
  let spawn = instantiate alg ~n (Sim_mem.mem memory) in
  (memory, Array.init n spawn)

let run ?max_steps ?crash_at ~pick alg ~n =
  let memory, procs = system alg ~n () in
  Runner.run ?max_steps ?crash_at ~memory ~pick procs

let contention_free (module A : Naming_intf.ALG) ~n =
  let spawn = instantiate (module A) ~n (Sim_mem.mem (Memory.create ())) in
  Solo.sequential ~nprocs:n ~spawn (fun online ->
      let names =
        Array.init n (fun pid ->
            match Measures.Online.decision online ~pid with
            | Some v -> v
            | None -> invalid_arg (Printf.sprintf "%s: p%d got no name" A.name pid))
      in
      (match
         Spec.distinct_names ~at:(Measures.Online.events_seen online) ~n
           (List.init n (fun pid -> (pid, names.(pid))))
       with
      | None -> ()
      | Some v ->
        invalid_arg (Format.asprintf "%s: %a" A.name Spec.pp_violation v));
      let per_process = Measures.Online.per_process online in
      {
        max = Array.fold_left Measures.max_sample Measures.zero per_process;
        per_process;
        names;
      })

let wc_estimate ~seeds (module A : Naming_intf.ALG) ~n =
  (* Naming is wait-free with worst case O(n) steps per process; budget
     quadratically with headroom so large-n estimates cannot silently
     truncate (the 1M default would, from n ≈ 2048). *)
  let max_steps = max 1_000_000 (8 * n * n) in
  Measures.max_over_schedules ~seeds (fun pick ->
      let out = run ~max_steps ~pick (module A) ~n in
      if not out.Runner.completed then
        invalid_arg (A.name ^ ": wc_estimate step budget exhausted");
      check_names (module A) out.Runner.trace ~n;
      Array.fold_left Measures.max_sample Measures.zero
        (Measures.Online.per_process
           (Measures.Online.of_trace ~nprocs:n out.Runner.trace)))

let lockstep_steps (module A : Naming_intf.ALG) ~n =
  let out = run ~pick:(Schedule.round_robin ()) (module A) ~n in
  check_names (module A) out.Runner.trace ~n;
  let steps = ref 0 in
  for pid = 0 to n - 1 do
    steps := max !steps (Scheduler.steps_taken out.Runner.scheduler pid)
  done;
  !steps
