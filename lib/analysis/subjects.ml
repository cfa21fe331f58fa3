open Cfc_base
open Cfc_core

type family = Mutex | Detector | Naming | Consensus | Renaming

let family_name = function
  | Mutex -> "mutex"
  | Detector -> "detect"
  | Naming -> "naming"
  | Consensus -> "consensus"
  | Renaming -> "renaming"

type solo = { context : (unit -> unit) list; body : unit -> unit }
type variant = { v_label : string; make : Mem_intf.mem -> solo }

type t = {
  family : family;
  alg_name : string;
  config : string;
  n : int;
  declared_atomicity : int option;
  predicted_steps : int option;
  predicted_registers : int option;
  variants : variant list;
  measured : unit -> Measures.sample;
}

(* One solo variant per listed pid: [instantiate] builds a fresh instance
   on the given backend and returns each pid's harness process body. *)
let per_pid pids instantiate =
  List.map
    (fun me ->
      {
        v_label = Printf.sprintf "p%d" me;
        make = (fun mem -> { context = []; body = instantiate mem me });
      })
    pids

let of_mutex ?l ~n (module A : Cfc_mutex.Mutex_intf.ALG) =
  let p = Cfc_mutex.Mutex_intf.params ?l n in
  if not (A.supports p) then None
  else
    let bare mem =
      let module M = (val mem : Mem_intf.MEM) in
      let module L = A.Make (M) in
      let t = L.create p in
      fun me () ->
        L.lock t ~me;
        L.unlock t ~me
    in
    Some
      {
        family = Mutex;
        alg_name = A.name;
        config =
          (match l with
          | None -> Printf.sprintf "n=%d" n
          | Some l -> Printf.sprintf "n=%d l=%d" n l);
        n;
        declared_atomicity = Some (A.atomicity p);
        predicted_steps = A.predicted_cf_steps p;
        predicted_registers = A.predicted_cf_registers p;
        variants = per_pid (Mutex_harness.sample_pids n) bare;
        measured =
          (fun () ->
            (Mutex_harness.contention_free (module A) p).Mutex_harness.max);
      }

(* The model-checked mutex system is not the bare [lock; unlock] solo the
   §2.2 measures quantify over: the harness body additionally allocates a
   critical-section witness register (after the algorithm instance) and
   exercises it between lock and unlock.  Static facts about the checked
   system — the independence relation the model checker's partial-order
   reduction consumes — must come from a subject with the same arena
   layout and the same access sequence, so this subject runs the harness
   body itself. *)
let of_mutex_checked ?l ~n (module A : Cfc_mutex.Mutex_intf.ALG) =
  let p = Cfc_mutex.Mutex_intf.params ?l n in
  if not (A.supports p) then None
  else
    Some
      {
        family = Mutex;
        alg_name = A.name;
        config = Printf.sprintf "n=%d checked" n;
        n;
        declared_atomicity = Some (A.atomicity p);
        predicted_steps = None;
        predicted_registers = None;
        variants =
          per_pid (Mutex_harness.sample_pids n)
            (Mutex_harness.instantiate (module A) p);
        measured =
          (fun () ->
            (Mutex_harness.contention_free (module A) p).Mutex_harness.max);
      }

(* The recovery path as a static subject: in the Golab–Ramaraju model a
   restarted process re-runs [lock] from the top against whatever the
   crashed incarnation left in shared memory.  The [context] mechanism
   reproduces exactly that persistent pre-crash state — concretely and
   unrecorded — and the recorded [body] is the recovery re-entry:
   [held] runs lock-after-lock (the crashed incarnation held the lock),
   [not_held] runs lock-after-lock+unlock (it did not).  The static
   measures of these subjects are the access-graph recovery costs,
   asserted by the battery against the algorithm's closed forms and the
   crash-point sweep's trace-measured paths; the register count doubles
   as the static recovery RMR (cold cache: every distinct register on
   the solo path is remote exactly once). *)
let of_mutex_recovery ~held ~n (module A : Cfc_mutex.Mutex_intf.ALG) =
  let p = Cfc_mutex.Mutex_intf.params n in
  if not (A.supports p) then None
  else
    match A.recovery p with
    | None -> None
    | Some forms ->
      let variants =
        List.map
          (fun me ->
            {
              v_label = Printf.sprintf "p%d" me;
              make =
                (fun mem ->
                  let module M = (val mem : Mem_intf.MEM) in
                  let module L = A.Make (M) in
                  let t = L.create p in
                  {
                    context =
                      (if held then [ (fun () -> L.lock t ~me) ]
                       else
                         [ (fun () -> L.lock t ~me);
                           (fun () -> L.unlock t ~me) ]);
                    body = (fun () -> L.lock t ~me);
                  });
            })
          (Mutex_harness.sample_pids n)
      in
      let crashed_in region =
        (* The sweep points whose measured path this subject models:
           crashes while holding for [held], crashes in the entry
           protocol for [not_held].  (Mid-exit crashes are ambiguous
           between the two and asserted separately by the core tests.) *)
        match (held, region) with
        | true, Cfc_runtime.Event.Critical -> true
        | false, (Cfc_runtime.Event.Trying | Cfc_runtime.Event.Remainder) ->
          true
        | _ -> false
      in
      Some
        {
          family = Mutex;
          alg_name = A.name;
          config =
            Printf.sprintf "n=%d recovery-%s" n
              (if held then "held" else "not-held");
          n;
          declared_atomicity = Some (A.atomicity p);
          predicted_steps =
            Some
              (if held then forms.Cfc_mutex.Mutex_intf.rec_steps_held
               else forms.Cfc_mutex.Mutex_intf.rec_steps_not_held);
          predicted_registers =
            Some
              (if held then forms.Cfc_mutex.Mutex_intf.rec_registers_held
               else forms.Cfc_mutex.Mutex_intf.rec_registers_not_held);
          variants;
          measured =
            (fun () ->
              List.fold_left
                (fun acc (pt : Recovery_harness.sweep_point) ->
                  match pt.Recovery_harness.outcome with
                  | Recovery_harness.Recovered { path; _ }
                    when crashed_in pt.Recovery_harness.crash_region ->
                    Measures.max_sample acc path
                  | _ -> acc)
                Measures.zero
                (Recovery_harness.solo_sweep (module A : Cfc_mutex.Mutex_intf.ALG) p));
        }

let of_detector ~n (module D : Cfc_mutex.Mutex_intf.DETECTOR) =
  let p = Cfc_mutex.Mutex_intf.params n in
  if not (D.supports p) then None
  else
    Some
      {
        family = Detector;
        alg_name = D.name;
        config = Printf.sprintf "n=%d" n;
        n;
        declared_atomicity = Some (D.atomicity p);
        predicted_steps = D.predicted_cf_steps p;
        predicted_registers = None;
        variants =
          per_pid (Mutex_harness.sample_pids n)
            (Detect_harness.instantiate (module D) p);
        measured =
          (fun () ->
            (Detect_harness.contention_free (module D) p).Detect_harness.max);
      }

(* Position [pos] of the §3.2 sequential run: its predecessors' runs of
   the same closure are the unrecorded context. *)
let of_naming ~n (module A : Cfc_naming.Naming_intf.ALG) =
  if not (A.supports ~n) then None
  else
    let variants =
      List.init n (fun pos ->
          {
            v_label = Printf.sprintf "seq%d" pos;
            make =
              (fun mem ->
                let spawn = Naming_harness.instantiate (module A) ~n mem in
                { context = List.init pos spawn; body = spawn pos });
          })
    in
    Some
      {
        family = Naming;
        alg_name = A.name;
        config = Printf.sprintf "n=%d" n;
        n;
        declared_atomicity = Some 1;
        predicted_steps = A.predicted_cf_steps ~n;
        predicted_registers = A.predicted_cf_registers ~n;
        variants;
        measured =
          (fun () ->
            (Naming_harness.contention_free (module A) ~n).Naming_harness.max);
      }

let of_consensus ~n (module C : Cfc_consensus.Consensus_intf.ALG) =
  if n > C.n_max then None
  else
    let variants =
      List.concat_map
        (fun me ->
          List.map
            (fun value ->
              {
                v_label = Printf.sprintf "p%d/in%d" me value;
                make =
                  (fun mem ->
                    let spawn =
                      Consensus_harness.instantiate (module C) ~n
                        ~inputs:(Array.make n value) mem
                    in
                    { context = []; body = spawn me });
              })
            [ 0; 1 ])
        (List.init n Fun.id)
    in
    Some
      {
        family = Consensus;
        alg_name = C.name;
        config = Printf.sprintf "n=%d" n;
        n;
        declared_atomicity = Some 1;
        predicted_steps = C.predicted_cf_steps;
        predicted_registers = C.predicted_cf_registers;
        variants;
        measured =
          (fun () ->
            List.fold_left
              (fun acc inputs ->
                Measures.max_sample acc
                  (Consensus_harness.contention_free (module C) ~n ~inputs)
                    .Consensus_harness.max)
              Measures.zero
              [ Array.make n 0; Array.make n 1 ]);
      }

let of_renaming ~n (module R : Cfc_renaming.Renaming_intf.ALG) =
  {
    family = Renaming;
    alg_name = R.name;
    config = Printf.sprintf "n=%d" n;
    n;
    declared_atomicity = None;
    predicted_steps = R.predicted_cf_steps;
    predicted_registers = R.predicted_cf_registers;
    variants =
      per_pid (List.init n Fun.id) (Renaming_harness.instantiate (module R) ~n);
    measured =
      (fun () ->
        (Renaming_harness.contention_free (module R) ~n).Renaming_harness.max);
  }

let registry () =
  List.filter_map Fun.id
    (List.concat_map
       (fun alg -> [ of_mutex ~n:2 alg; of_mutex ~n:8 alg ])
       Cfc_mutex.Registry.all
    @ List.concat_map
        (fun alg ->
          List.concat_map
            (fun n ->
              [ of_mutex_recovery ~held:true ~n alg;
                of_mutex_recovery ~held:false ~n alg ])
            [ 2; 8 ])
        Cfc_mutex.Registry.recoverable
    @ List.concat_map
        (fun d -> [ of_detector ~n:2 d; of_detector ~n:8 d ])
        Cfc_mutex.Registry.detectors
    @ List.concat_map
        (fun a -> [ of_naming ~n:2 a; of_naming ~n:4 a; of_naming ~n:8 a ])
        Cfc_naming.Registry.all
    @ List.map (fun a -> of_consensus ~n:2 a) Cfc_consensus.Registry.all
    @ [
        of_consensus ~n:2 Cfc_consensus.Registry.broken_rw;
        of_consensus ~n:3 Cfc_consensus.Registry.broken_three;
      ]
    @ List.concat_map
        (fun a -> [ Some (of_renaming ~n:2 a); Some (of_renaming ~n:4 a) ])
        Cfc_renaming.Registry.all)
