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
let cell_hash h c = (h * 31) + Hashtbl.hash c

let equal (a : t) (b : t) = a = b

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

let hash (t : t) =
  let h = ref 0 in
  Array.iter (fun v -> h := (!h * 31) + v) t.k_regvals;
  Array.iter
    (fun p ->
      h := (!h * 31) + p.k_status;
      h := (!h * 31) + Hashtbl.hash p.k_region;
      h := (!h * 31) + p.k_obs_hash)
    t.k_procs;
  !h land max_int
