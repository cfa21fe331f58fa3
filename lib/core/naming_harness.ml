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

let system alg ~n () = Adversary.arena ~nprocs:n (instantiate alg ~n)

let run ?max_steps ?crash_at ~pick alg ~n =
  Adversary.outcome
    (Adversary.run ?max_steps ?crash_at ~pick ~nprocs:n (instantiate alg ~n))

(* Naming safety over the decisions on the fold: distinct names in
   1..n. *)
let check_names (module A : Naming_intf.ALG) ~n online =
  match
    Spec.distinct_names ~at:(Measures.Online.events_seen online) ~n
      (Measures.Online.decisions online)
  with
  | None -> ()
  | Some v -> invalid_arg (Format.asprintf "%s: %a" A.name Spec.pp_violation v)

let contention_free ((module A : Naming_intf.ALG) as alg) ~n =
  let spawn = instantiate alg ~n (Sim_mem.mem (Memory.create ())) in
  Solo.sequential ~nprocs:n ~spawn (fun online ->
      let names =
        Array.init n (fun pid ->
            match Measures.Online.decision online ~pid with
            | Some v -> v
            | None -> invalid_arg (Printf.sprintf "%s: p%d got no name" A.name pid))
      in
      check_names alg ~n online;
      let per_process = Measures.Online.per_process online in
      {
        max = Array.fold_left Measures.max_sample Measures.zero per_process;
        per_process;
        names;
      })

let wc_estimate ~seeds ((module A : Naming_intf.ALG) as alg) ~n =
  (* Naming is wait-free with worst case O(n) steps per process; budget
     quadratically with headroom so large-n estimates cannot stall (the
     1M default would, from n ≈ 2048). *)
  Adversary.worst_case ~alg:A.name ~max_steps:(max 1_000_000 (8 * n * n))
    ~seeds ~nprocs:n (instantiate alg ~n) (fun online ->
      check_names alg ~n online;
      Array.fold_left Measures.max_sample Measures.zero
        (Measures.Online.per_process online))

(* The family's first run, round-robin, is the lockstep adversary. *)
let lockstep_steps alg ~n = (wc_estimate ~seeds:[] alg ~n).Measures.steps
