open Cfc_runtime

type cell = { reg : int; kind : Event.access_kind }

type proc_key = {
  k_status : int;
  k_region : Event.region;
  k_obs_hash : int;  (* left fold of [cell_hash] over k_obs, oldest first *)
  k_obs : cell list;  (* newest first *)
}

type t = { k_regvals : int array; k_procs : proc_key array }

let status_tag = function
  | Scheduler.Runnable -> 0
  | Scheduler.Halted -> 1
  | Scheduler.Crashed -> 2
  | Scheduler.Errored _ -> 3

let cell r k = { reg = r.Register.id; kind = k }
let cell_digest (c : cell) = Hashtbl.hash c
let fold_digest h d = (h * 31) + d
let cell_hash h c = fold_digest h (cell_digest c)

(* Typed equality, structurally the same relation as polymorphic [=] on
   keys.  Every helper is top level and the comparisons are on ints, so
   a call allocates nothing.  Observation lists are shared between the
   keys of a state and its descendants, so a physically equal tail ends
   the walk early. *)
let kind_equal (a : Event.access_kind) (b : Event.access_kind) =
  match (a, b) with
  | A_read x, A_read y | A_write x, A_write y -> x = y
  | A_field (i, w, v), A_field (i', w', v') -> i = i' && w = w' && v = v'
  | A_xchg (v, o), A_xchg (v', o') -> v = v' && o = o'
  | A_cas (e, d, ok), A_cas (e', d', ok') -> e = e' && d = d' && Bool.equal ok ok'
  | A_bit (op, r), A_bit (op', r') -> (
    op == op'
    && match (r, r') with
       | None, None -> true
       | Some x, Some y -> x = y
       | None, Some _ | Some _, None -> false)
  | (A_read _ | A_write _ | A_field _ | A_xchg _ | A_cas _ | A_bit _), _ ->
    false

let cell_equal a b = a == b || (a.reg = b.reg && kind_equal a.kind b.kind)

let rec obs_equal a b =
  a == b
  ||
  match (a, b) with
  | x :: a', y :: b' -> cell_equal x y && obs_equal a' b'
  | [], _ | _, [] -> false

let proc_equal a b =
  a == b
  || a.k_status = b.k_status
     && a.k_obs_hash = b.k_obs_hash
     && Event.region_equal a.k_region b.k_region
     && obs_equal a.k_obs b.k_obs

let rec ints_equal a b i = i < 0 || (a.(i) = b.(i) && ints_equal a b (i - 1))

let rec procs_equal a b i =
  i < 0 || (proc_equal a.(i) b.(i) && procs_equal a b (i - 1))

let equal (a : t) (b : t) =
  let na = Array.length a.k_regvals and pa = Array.length a.k_procs in
  na = Array.length b.k_regvals
  && pa = Array.length b.k_procs
  && ints_equal a.k_regvals b.k_regvals (na - 1)
  && procs_equal a.k_procs b.k_procs (pa - 1)

(* Two independent multiply–xorshift lanes over the full key structure.
   Unlike [hash] (which leans on the rolling [k_obs_hash]), the
   fingerprint walks the observation lists and folds every operand
   directly, so the two 62-bit lanes together give the compact seen-set
   its ~124 bits of discrimination. *)

let fp_m1 = 0x2545F4914F6CDD1D
let fp_m2 = 0x27D4EB2F165667C5

let fp_mix m h v =
  let h = (h lxor v) * m in
  h lxor (h lsr 29)

let region_code = function
  | Event.Remainder -> 0
  | Event.Trying -> 1
  | Event.Critical -> 2
  | Event.Exiting -> 3
  | Event.Halted -> 4
  | Event.Decided _ -> 5

let fp_kind m h = function
  | Event.A_read v -> fp_mix m (fp_mix m h 1) v
  | Event.A_write v -> fp_mix m (fp_mix m h 2) v
  | Event.A_field (i, w, v) ->
    fp_mix m (fp_mix m (fp_mix m (fp_mix m h 3) i) w) v
  | Event.A_xchg (w, o) -> fp_mix m (fp_mix m (fp_mix m h 4) w) o
  | Event.A_cas (e, d, ok) ->
    fp_mix m
      (fp_mix m (fp_mix m (fp_mix m h 5) e) d)
      (if ok then 1 else 0)
  | Event.A_bit (op, v) ->
    fp_mix m
      (fp_mix m (fp_mix m h 6) (Hashtbl.hash op))
      (match v with None -> -1 | Some v -> v)

let fp_lane m (t : t) salt =
  let h = ref (fp_mix m salt (Array.length t.k_regvals)) in
  Array.iter (fun v -> h := fp_mix m !h v) t.k_regvals;
  Array.iter
    (fun p ->
      h := fp_mix m !h p.k_status;
      h := fp_mix m !h (region_code p.k_region);
      (h :=
         match p.k_region with
         | Event.Decided v -> fp_mix m !h v
         | _ -> !h);
      List.iter
        (fun c ->
          h := fp_mix m !h c.reg;
          h := fp_kind m !h c.kind)
        p.k_obs;
      h := fp_mix m !h (-2))
    t.k_procs;
  !h

let fingerprint (t : t) salt =
  (fp_lane fp_m1 t salt, fp_lane fp_m2 t (salt + 0x5851F42D))

(* [Hashtbl.hash] of a region, with the constant constructors' values
   computed once. *)
let h_remainder = Hashtbl.hash Event.Remainder
let h_trying = Hashtbl.hash Event.Trying
let h_critical = Hashtbl.hash Event.Critical
let h_exiting = Hashtbl.hash Event.Exiting
let h_halted = Hashtbl.hash Event.Halted

let region_hash (r : Event.region) =
  match r with
  | Remainder -> h_remainder
  | Trying -> h_trying
  | Critical -> h_critical
  | Exiting -> h_exiting
  | Halted -> h_halted
  | Decided _ -> Hashtbl.hash r

let hash (t : t) =
  let h = ref 0 in
  for i = 0 to Array.length t.k_regvals - 1 do
    h := (!h * 31) + Array.unsafe_get t.k_regvals i
  done;
  for i = 0 to Array.length t.k_procs - 1 do
    let p = Array.unsafe_get t.k_procs i in
    h := (!h * 31) + p.k_status;
    h := (!h * 31) + region_hash p.k_region;
    h := (!h * 31) + p.k_obs_hash
  done;
  !h land max_int
