open Cfc_runtime
open Cfc_naming

type cf_result = {
  max : Measures.sample;
  per_process : Measures.sample array;
  names : int array;
}

let instantiate (module A : Naming_intf.ALG) ~n =
  if not (A.supports ~n) then
    invalid_arg (Printf.sprintf "%s does not support n=%d" A.name n);
  let memory = Memory.create () in
  let module M = (val Sim_mem.mem memory) in
  let module N = A.Make (M) in
  let inst = N.create ~n in
  let proc () =
    Proc.region Event.Trying;
    let name = N.run inst in
    Proc.decide name
  in
  (memory, proc)

let check_names (module A : Naming_intf.ALG) trace ~n =
  match Spec.unique_names trace ~nprocs:n ~n with
  | None -> ()
  | Some v ->
    invalid_arg (Format.asprintf "%s: %a" A.name Spec.pp_violation v)

let system (module A : Naming_intf.ALG) ~n () =
  let memory, proc = instantiate (module A) ~n in
  (memory, Array.init n (fun _ -> proc))

let run ?max_steps ?crash_at ~pick (module A : Naming_intf.ALG) ~n =
  let memory, proc = instantiate (module A) ~n in
  (* Identical processes: every pid runs the same closure. *)
  let procs = Array.init n (fun _ -> proc) in
  Runner.run ?max_steps ?crash_at ~memory ~pick procs

let contention_free (module A : Naming_intf.ALG) ~n =
  let out = run ~pick:(Schedule.sequential ()) (module A) ~n in
  check_names (module A) out.Runner.trace ~n;
  (match Spec.all_named out.Runner.trace ~nprocs:n with
  | None -> ()
  | Some v ->
    invalid_arg (Format.asprintf "%s: %a" A.name Spec.pp_violation v));
  let per_process =
    Measures.Online.per_process
      (Measures.Online.of_trace ~nprocs:n out.Runner.trace)
  in
  let decided = Measures.decisions out.Runner.trace ~nprocs:n in
  let names =
    Array.init n (fun pid ->
        match List.assoc_opt pid decided with Some v -> v | None -> -1)
  in
  {
    max = Array.fold_left Measures.max_sample Measures.zero per_process;
    per_process;
    names;
  }

let max_over_run (module A : Naming_intf.ALG) out ~n =
  check_names (module A) out.Runner.trace ~n;
  Array.fold_left Measures.max_sample Measures.zero
    (Measures.Online.per_process
       (Measures.Online.of_trace ~nprocs:n out.Runner.trace))

let wc_estimate ~seeds (module A : Naming_intf.ALG) ~n =
  (* Naming is wait-free with worst case O(n) steps per process; budget
     quadratically with headroom so large-n estimates cannot silently
     truncate (the 1M default would, from n ≈ 2048). *)
  let max_steps = max 1_000_000 (8 * n * n) in
  let with_pick mk =
    let out = run ~max_steps ~pick:(mk ()) (module A) ~n in
    if not out.Runner.completed then
      invalid_arg (A.name ^ ": wc_estimate step budget exhausted");
    max_over_run (module A) out ~n
  in
  let base = with_pick Schedule.round_robin in
  List.fold_left
    (fun acc seed ->
      Measures.max_sample acc (with_pick (fun () -> Schedule.random ~seed)))
    base seeds

let lockstep_steps (module A : Naming_intf.ALG) ~n =
  let out = run ~pick:(Schedule.round_robin ()) (module A) ~n in
  check_names (module A) out.Runner.trace ~n;
  let steps = ref 0 in
  for pid = 0 to n - 1 do
    steps := max !steps (Scheduler.steps_taken out.Runner.scheduler pid)
  done;
  !steps
