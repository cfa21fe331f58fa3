(* YCSB-style operation mixes over a Zipfian key space.  The generator is
   pure stream state: every draw comes from a per-client seeded
   [Random.State] derived by split-seed mixing, so client c's stream is
   identical on the simulated and native drivers and uncorrelated with
   client c+1's (same discipline as Workload.think_stream, distinct
   salt so op draws never replicate think draws). *)

open Cfc_base

type op =
  | Read of int
  | Update of int
  | Scan of int * int
  | Rmw of int

type mix = {
  mix_name : string;
  read : float;
  update : float;
  scan : float;
  rmw : float;
  scan_len : int;
}

let check m =
  let s = m.read +. m.update +. m.scan +. m.rmw in
  if Float.abs (s -. 1.0) > 1e-9 then
    invalid_arg (Printf.sprintf "Ycsb: mix %s sums to %g, not 1" m.mix_name s);
  if m.scan > 0. && m.scan_len < 1 then
    invalid_arg (Printf.sprintf "Ycsb: mix %s scans with scan_len < 1"
                   m.mix_name);
  m

(* The canonical YCSB core workloads (A, B, C, E), with E's 5% inserts
   folded into read-modify-write — the store is fixed-size (the paper's
   model has no dynamic allocation), so "insert" is an RMW on an
   existing key.  Recorded as a DESIGN.md §2 substitution. *)
let mix_a =
  check { mix_name = "A"; read = 0.5; update = 0.5; scan = 0.; rmw = 0.;
          scan_len = 0 }

let mix_b =
  check { mix_name = "B"; read = 0.95; update = 0.05; scan = 0.; rmw = 0.;
          scan_len = 0 }

let mix_c =
  check { mix_name = "C"; read = 1.0; update = 0.; scan = 0.; rmw = 0.;
          scan_len = 0 }

let mix_e =
  check { mix_name = "E"; read = 0.; update = 0.; scan = 0.95; rmw = 0.05;
          scan_len = 16 }

let mixes = [ mix_a; mix_b; mix_c; mix_e ]

let mix_of_name s =
  List.find_opt
    (fun m -> String.lowercase_ascii m.mix_name = String.lowercase_ascii s)
    mixes

type stream = {
  st : Random.State.t;
  zipf : Ixmath.zipf;
  mix : mix;
  nkeys : int;
}

(* The last Zipf CDF built on this domain, keyed by (nkeys, theta): a KV
   run opens one stream per client with the same parameters, and the
   table is immutable, so consecutive streams share it instead of each
   rebuilding nkeys floats.  Domain-local, so Kv_service's domains never
   race on the memo. *)
let zipf_memo : (int * float * Ixmath.zipf) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let shared_zipf ~n ~theta =
  match Domain.DLS.get zipf_memo with
  | Some (n', theta', z) when n' = n && Float.equal theta' theta -> z
  | Some _ | None ->
    let z = Ixmath.zipf ~n ~theta in
    Domain.DLS.set zipf_memo (Some (n, theta, z));
    z

(* Salt 0x5b separates op draws from think-time draws ([mix_seed seed
   client] alone) and crash draws (salt 0x0c in Lock_service). *)
let stream ~seed ~client ~nkeys ~theta mix =
  if nkeys < 1 then invalid_arg "Ycsb.stream: nkeys < 1";
  {
    st = Random.State.make [| Ixmath.mix_seed seed client; 0x5b |];
    zipf = shared_zipf ~n:nkeys ~theta;
    mix;
    nkeys;
  }

let next s =
  let key = Ixmath.zipf_draw s.zipf ~u:(Random.State.float s.st 1.0) in
  let u = Random.State.float s.st 1.0 in
  let m = s.mix in
  if u < m.read then Read key
  else if u < m.read +. m.update then Update key
  else if u < m.read +. m.update +. m.scan then
    Scan (key, min m.scan_len s.nkeys)
  else Rmw key

let key_of = function Read k | Update k | Scan (k, _) | Rmw k -> k
