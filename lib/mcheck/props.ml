open Cfc_core

let check_mutex ?config ?symmetry ?engine ?domains ?share_seen ?compact
    ?replay_safe ?independence ?seen_hint ?observe_access ?rounds alg p =
  Explore.run ?config ?symmetry ?engine ?domains ?share_seen ?compact
    ?replay_safe ?independence ?seen_hint ?observe_access
    ~inc:Spec.Inc.mutual_exclusion
    ~system:(Mutex_harness.system ?rounds alg p)
    ~check:(fun trace ~nprocs -> Spec.mutual_exclusion trace ~nprocs)
    ()

let check_mutex_recoverable ?config ?symmetry ?engine ?domains ?share_seen
    ?compact ?replay_safe ?independence ?seen_hint ?pairs ?rounds alg p =
  Explore.run_faults ?config ?symmetry ?engine ?domains ?share_seen ?compact
    ?replay_safe ?independence ?seen_hint ?pairs
    ~inc:Spec.Inc.mutual_exclusion_recoverable
    ~system:(Mutex_harness.system ?rounds alg p)
    ~check:(fun trace ~nprocs ->
      Spec.mutual_exclusion_recoverable trace ~nprocs)
    ()

let check_detector ?config ?symmetry ?engine ?domains ?share_seen ?compact
    ?replay_safe ?independence ?seen_hint det p =
  let check trace ~nprocs = Spec.at_most_one_winner trace ~nprocs in
  Explore.run ?config ?symmetry ?engine ?domains ?share_seen ?compact
    ?replay_safe ?independence ?seen_hint
    ~inc:(Spec.Inc.on_decisions check)
    ~system:(Detect_harness.system det p)
    ~check ()

let check_consensus ?config ?engine ?domains ?share_seen ?compact ?replay_safe
    ?seen_hint alg ~n ~inputs =
  let check trace ~nprocs =
    (* Build a pseudo-outcome view: the agreement/validity check only
       needs decisions from the trace. *)
    let decisions = Measures.decisions trace ~nprocs in
    let invalid =
      List.filter
        (fun (_, v) -> not (Array.exists (Int.equal v) inputs))
        decisions
    in
    match invalid with
    | (pid, v) :: _ ->
      Some
        { Spec.at = Cfc_runtime.Trace.length trace;
          pids = [ pid ];
          what = Printf.sprintf "decided %d, not an input" v }
    | [] -> (
      match decisions with
      | (_, a) :: rest -> (
        match List.filter (fun (_, v) -> v <> a) rest with
        | (pid, v) :: _ ->
          Some
            { Spec.at = Cfc_runtime.Trace.length trace;
              pids = [ pid ];
              what = Printf.sprintf "disagreement: %d vs %d" v a }
        | [] -> None)
      | [] -> None)
  in
  Explore.run ?config ?engine ?domains ?share_seen ?compact ?replay_safe
    ?seen_hint
    ~inc:(Spec.Inc.on_decisions check)
    ~system:(Consensus_harness.system alg ~n ~inputs)
    ~check ()

let check_renaming ?config ?engine ?domains ?share_seen ?compact ?replay_safe
    ?seen_hint alg ~n =
  let (module A : Cfc_renaming.Renaming_intf.ALG) = alg in
  let check trace ~nprocs =
    Spec.unique_names trace ~nprocs ~n:(A.name_space ~n ~k:n)
  in
  Explore.run ?config ?engine ?domains ?share_seen ?compact ?replay_safe
    ?seen_hint
    ~inc:(Spec.Inc.on_decisions check)
    ~system:(Renaming_harness.system alg ~n)
    ~check ()

let check_naming ?config ?engine ?domains ?share_seen ?compact ?replay_safe
    ?seen_hint ?(symmetric = true) alg ~n =
  let check trace ~nprocs = Spec.unique_names trace ~nprocs ~n in
  let symmetry = if symmetric then Some (Symmetry.identical ~nprocs:n) else None in
  Explore.run ?config ?symmetry ?engine ?domains ?share_seen ?compact
    ?replay_safe ?seen_hint
    ~inc:(Spec.Inc.on_decisions check)
    ~system:(Naming_harness.system alg ~n)
    ~check ()
