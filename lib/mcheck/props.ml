open Cfc_core

let check_mutex ?config ?symmetry ?engine ?compact ?independence
    ?seen_hint ?observe_access ?rounds alg p =
  Explore.run ?config ?symmetry ?engine ?compact ?independence
    ?seen_hint ?observe_access
    ~inc:Spec.Inc.mutual_exclusion
    ~system:(Mutex_harness.system ?rounds alg p)
    ~check:(fun trace ~nprocs -> Spec.mutual_exclusion trace ~nprocs)
    ()

let check_mutex_recoverable ?config ?symmetry ?engine ?compact
    ?independence ?seen_hint ?pairs ?rounds alg p =
  Explore.run_faults ?config ?symmetry ?engine ?compact
    ?independence ?seen_hint ?pairs
    ~inc:Spec.Inc.mutual_exclusion_recoverable
    ~system:(Mutex_harness.system ?rounds alg p)
    ~check:(fun trace ~nprocs ->
      Spec.mutual_exclusion_recoverable trace ~nprocs)
    ()

let check_detector ?config ?symmetry ?engine ?compact
    ?independence ?seen_hint det p =
  let check trace ~nprocs = Spec.at_most_one_winner trace ~nprocs in
  Explore.run ?config ?symmetry ?engine ?compact ?independence
    ?seen_hint
    ~inc:(Spec.Inc.on_decisions check)
    ~system:(Detect_harness.system det p)
    ~check ()

let check_consensus ?config ?engine ?compact ?seen_hint alg ~n
    ~inputs =
  let check = Spec.agreement ~inputs in
  Explore.run ?config ?engine ?compact ?seen_hint
    ~inc:(Spec.Inc.on_decisions check)
    ~system:(Consensus_harness.system alg ~n ~inputs)
    ~check ()

let check_renaming ?config ?engine ?compact ?seen_hint alg ~n =
  let (module A : Cfc_renaming.Renaming_intf.ALG) = alg in
  let check trace ~nprocs =
    Spec.unique_names trace ~nprocs ~n:(A.name_space ~n ~k:n)
  in
  Explore.run ?config ?engine ?compact ?seen_hint
    ~inc:(Spec.Inc.on_decisions check)
    ~system:(Renaming_harness.system alg ~n)
    ~check ()

let check_naming ?config ?engine ?compact ?seen_hint
    ?(symmetric = true) alg ~n =
  let check trace ~nprocs = Spec.unique_names trace ~nprocs ~n in
  let symmetry = if symmetric then Some (Symmetry.identical ~nprocs:n) else None in
  Explore.run ?config ?symmetry ?engine ?compact ?seen_hint
    ~inc:(Spec.Inc.on_decisions check)
    ~system:(Naming_harness.system alg ~n)
    ~check ()
