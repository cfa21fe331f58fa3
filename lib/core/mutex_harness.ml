open Cfc_base
open Cfc_runtime
open Cfc_mutex

type cf_result = {
  max : Measures.sample;
  per_process : Measures.sample array;
  atomicity_declared : int;
  atomicity_observed : int;
}

exception Critical_section_trampled of int

let witness_name = "cs.witness"

let instantiate ?(rounds = 1) (module A : Mutex_intf.ALG)
    (p : Mutex_intf.params) mem =
  if not (A.supports p) then
    invalid_arg
      (Printf.sprintf "%s does not support n=%d l=%d" A.name p.Mutex_intf.n
         p.Mutex_intf.l);
  let module M = (val mem : Mem_intf.MEM) in
  let module L = A.Make (M) in
  let inst = L.create p in
  (* A witness register exercised inside the critical section: it widens
     the window in which an exclusion failure is observable and directly
     detects a concurrent writer.  Its accesses happen in the [Critical]
     region, so no §2.2 measure counts them. *)
  let witness =
    M.alloc ~name:witness_name
      ~width:(Ixmath.bits_needed (max 1 (p.Mutex_intf.n - 1)))
      ~init:0 ()
  in
  fun me () ->
    for _ = 1 to rounds do
      Proc.region Event.Trying;
      L.lock inst ~me;
      Proc.region Event.Critical;
      M.write witness me;
      if M.read witness <> me then raise (Critical_section_trampled me);
      Proc.region Event.Exiting;
      L.unlock inst ~me;
      Proc.region Event.Remainder
    done

let arena ?rounds alg p =
  let memory = Memory.create () in
  (memory, instantiate ?rounds alg p (Sim_mem.mem memory))

(* The widest register the algorithm itself allocated: every register of
   the arena but the witness. *)
let algorithm_width memory =
  Memory.fold
    (fun w (r : Register.t) ->
      if String.equal r.Register.name witness_name then w
      else max w r.Register.width)
    0 memory

(* Which processes to measure: all of them up to 64, then a deterministic
   spread (ends, powers of two, and their neighbours) — our algorithms'
   solo cost depends on the pid only through its tree position, and the
   per-pid equality is asserted exhaustively at small n by the tests. *)
let sample_pids n =
  if n <= 64 then List.init n Fun.id
  else begin
    let candidates =
      [ 0; 1; 2; (n / 2) - 1; n / 2; n - 2; n - 1 ]
      @ List.concat_map
          (fun k ->
            let v = Ixmath.pow2 k in
            if v < n then [ v - 1; v ] else [])
          (List.init 20 Fun.id)
    in
    List.sort_uniq compare (List.filter (fun i -> i >= 0 && i < n) candidates)
  end

(* The §2.2 contention-free run of [me] has every other process still
   in its remainder (never started): a {!Solo} run of [me] alone.  The
   arena is allocated once and nothing else is O(n) per run but the
   wheel's pid table, which is what makes the n = 10^5 sweeps of
   EXP-SCALE possible. *)
let contention_free (module A : Mutex_intf.ALG) (p : Mutex_intf.params) =
  let n = p.Mutex_intf.n in
  let memory, spawn = arena (module A) p in
  let per_process =
    Solo.each ~nprocs:n ~spawn (sample_pids n) Measures.Online.contention_free
  in
  {
    max = Array.fold_left Measures.max_sample Measures.zero per_process;
    per_process;
    atomicity_declared = A.atomicity p;
    atomicity_observed = algorithm_width memory;
  }

let contention_free_streaming = contention_free

let system ?rounds alg (p : Mutex_intf.params) () =
  let memory, spawn = arena ?rounds alg p in
  (memory, Array.init p.Mutex_intf.n spawn)

let run ?rounds ?max_steps ?crash_at ?faults ~pick alg
    (p : Mutex_intf.params) =
  let memory, procs = system ?rounds alg p () in
  Runner.run ?max_steps ?crash_at ?faults ~memory ~pick procs

let wc_estimate ?(rounds = 2) ~seeds alg (p : Mutex_intf.params) ~entry =
  Measures.max_over_schedules ~seeds (fun pick ->
      let out = run ~rounds ~max_steps:2_000_000 ~pick alg p in
      let online =
        Measures.Online.of_trace ~nprocs:p.Mutex_intf.n out.Runner.trace
      in
      List.fold_left
        (fun acc (_, s) -> Measures.max_sample acc s)
        Measures.zero
        (if entry then Measures.Online.wc_entries online
         else Measures.Online.wc_exits online))

(* Explicit 2-process schedule forcing the eventual winner of Lamport's
   fast algorithm to spin [spin] times inside a window where no process
   occupies the critical section (see the .mli).  Process 0 uses slot 1,
   process 1 slot 2; the step-by-step account is in the comments. *)
let lamport_unbounded_entry ~spin =
  let p = Mutex_intf.params 2 in
  let memory, procs = system Registry.lamport_fast p () in
  let prefix =
    List.concat
      [ [ 0; 0; 0; 0 ];  (* p0: b1:=1; x:=1; read y=0; y:=1            *)
        [ 1; 1 ];        (* p1: b2:=1; x:=2                            *)
        [ 0; 0; 0; 0 ];  (* p0: read x=2 (fast path lost); b1:=0;
                            slow-path scan: read b1=0; read b2=1       *)
        (* p0 spins on b2: each loop iteration costs two scheduler
           turns (one read access + one free pause), so schedule 2·spin
           turns to get at least [spin] counted accesses. *)
        List.init (2 * spin) (fun _ -> 0);
        [ 1; 1 ];        (* p1: read y=1 (gate closed); b2:=0          *)
      ]
  in
  let pick = Schedule.pref_then prefix (Schedule.round_robin ()) in
  let out = Runner.run ~memory ~pick procs in
  (match Spec.mutual_exclusion out.Runner.trace ~nprocs:2 with
  | None -> ()
  | Some v ->
    invalid_arg (Format.asprintf "unbounded demo: %a" Spec.pp_violation v));
  let entries =
    Measures.Online.wc_entries
      (Measures.Online.of_trace ~nprocs:2 out.Runner.trace)
  in
  List.fold_left
    (fun acc (pid, s) -> if pid = 0 then Measures.max_sample acc s else acc)
    Measures.zero entries
