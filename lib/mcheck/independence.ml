open Cfc_runtime

(* ------------------------------------------------------------------ *)
(* Footprints: which registers a step may read or write, as bitmasks
   over register ids (allocation order).  Conflict is the §POR may-not-
   commute relation: a write on a register some other step touches. *)

type fp = { f_read : int; f_write : int }

let fp_empty = { f_read = 0; f_write = 0 }

let fp_union a b =
  { f_read = a.f_read lor b.f_read; f_write = a.f_write lor b.f_write }

let fp_equal a b = a.f_read = b.f_read && a.f_write = b.f_write

let conflict a b =
  a.f_write land (b.f_read lor b.f_write) <> 0
  || b.f_write land a.f_read <> 0

(* The widest register id a bitmask can carry without touching the sign
   bit of a 63-bit OCaml int. *)
let max_reg_bits = 62

(* Op classes interned as ints: the five register operations, then one
   per bit operation in [Ops.to_index] order.  [class_id_of_string] maps
   the analyzer's class names ({!Cfc_analysis.Analyze.op_class}'s) onto
   the same ids ([-1] for a name no dynamic access can carry). *)
let class_id : Event.access_kind -> int = function
  | Event.A_read _ -> 0
  | Event.A_write _ -> 1
  | Event.A_field _ -> 2
  | Event.A_xchg _ -> 3
  | Event.A_cas _ -> 4
  | Event.A_bit (op, _) -> 5 + Cfc_base.Ops.to_index op

let class_id_of_string s =
  let kinds =
    Event.A_read 0 :: Event.A_write 0 :: Event.A_field (0, 1, 0)
    :: Event.A_xchg (0, 0) :: Event.A_cas (0, 0, false)
    :: List.map (fun op -> Event.A_bit (op, None)) Cfc_base.Ops.all
  in
  match
    List.find_opt
      (fun k -> String.equal (Cfc_analysis.Analyze.op_class k) s)
      kinds
  with
  | Some k -> class_id k
  | None -> -1

let fp_of_access ?(changed = true) ~reg (kind : Event.access_kind) =
  let bit = 1 lsl reg in
  let writes =
    changed
    &&
    match kind with
    (* A failed CAS records as a read ([Event.is_write] is
       success-dependent), but whether it succeeds depends on the
       interleaving, so for commutation it must count as a write. *)
    | Event.A_cas _ -> true
    | k -> Event.is_write k
  in
  { f_read = bit; f_write = (if writes then bit else 0) }

(* ------------------------------------------------------------------ *)
(* The static model of one process: its access graph
   ([Cfc_analysis.Analyze]), re-indexed as arrays, with the footprint of
   every node and the fixpoint union of footprints reachable from it. *)

type ninfo = {
  i_reg : int;
  i_cls : int;  (* [class_id_of_string] of the node's op class *)
  i_fp : fp;
  i_cycle : bool;
  i_may_end : bool;
}

type model = {
  m_entry : int list;  (* nodes with baseline position 0 *)
  m_info : ninfo array;
  m_succ : int array array;
  m_future : fp array;  (* [i_fp] unioned over graph-reachable nodes *)
  m_cycmask : int array;
      (* per register id, a bitmask over op-class ids: the (register, op
         class) pairs appearing on a detected busy-wait cycle,
         occurrence-independent — the dynamic search prunes spin
         unrolling long before it reaches the occurrence indices the
         symbolic engine flagged, so membership must not depend on how
         many times the instruction already executed *)
}

type t = { models : model option array }

let usable t = Array.exists Option.is_some t.models

let model_of_graph (g : Cfc_analysis.Analyze.graph) =
  let open Cfc_analysis.Analyze in
  let keys =
    List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) g.g_nodes [])
  in
  let keys = Array.of_list keys in
  let nn = Array.length keys in
  if nn = 0 then None
  else begin
    let index = Hashtbl.create nn in
    Array.iteri (fun i k -> Hashtbl.replace index k i) keys;
    let node i = Hashtbl.find g.g_nodes keys.(i) in
    let overflow = ref false in
    let info =
      Array.init nn (fun i ->
          let n = node i in
          if n.n_reg >= max_reg_bits then overflow := true;
          let bit = 1 lsl n.n_reg in
          {
            i_reg = n.n_reg;
            i_cls = class_id_of_string n.n_class;
            i_fp =
              {
                f_read = bit;
                (* anything but a plain read may write: CAS and bit ops
                   conservatively so, since success is value-dependent *)
                f_write = (if n.n_class = "read" then 0 else bit);
              };
            i_cycle = n.n_cycle;
            i_may_end = n.n_may_end;
          })
    in
    let entry = ref [] in
    Array.iteri
      (fun i _ -> if (node i).n_baseline = 0 then entry := i :: !entry)
      keys;
    if !overflow || !entry = [] then None
    else begin
      let succ = Array.make nn [] in
      Hashtbl.iter
        (fun (a, b) () ->
          match (Hashtbl.find_opt index a, Hashtbl.find_opt index b) with
          | Some ia, Some ib -> succ.(ia) <- ib :: succ.(ia)
          | _ -> ())
        g.g_edges;
      let succ =
        Array.map (fun l -> Array.of_list (List.sort_uniq compare l)) succ
      in
      let future = Array.map (fun inf -> inf.i_fp) info in
      let changed = ref true in
      while !changed do
        changed := false;
        for i = 0 to nn - 1 do
          let f =
            Array.fold_left
              (fun acc j -> fp_union acc future.(j))
              future.(i) succ.(i)
          in
          if not (fp_equal f future.(i)) then begin
            future.(i) <- f;
            changed := true
          end
        done
      done;
      let cycmask = Array.make max_reg_bits 0 in
      Array.iter
        (fun inf ->
          if inf.i_cycle && inf.i_cls >= 0 then
            cycmask.(inf.i_reg) <- cycmask.(inf.i_reg) lor (1 lsl inf.i_cls))
        info;
      Some
        {
          m_entry = List.sort compare !entry;
          m_info = info;
          m_succ = succ;
          m_future = future;
          m_cycmask = cycmask;
        }
    end
  end

let of_report (report : Cfc_analysis.Analyze.report) =
  {
    models =
      Array.of_list
        (List.map
           (fun vr -> model_of_graph vr.Cfc_analysis.Analyze.vr_graph)
           report.Cfc_analysis.Analyze.variants);
  }

let build subject_opt ~config =
  match subject_opt with
  | None -> None
  | Some subject -> (
    match Cfc_analysis.Analyze.analyze ?config subject with
    | report ->
      let t = of_report report in
      if usable t then Some t else None
    | exception _ -> None)

let mutex ?config alg (p : Cfc_mutex.Mutex_intf.params) =
  (* [of_mutex_checked], not [of_mutex]: the checked arena has the
     critical-section witness register, and footprints are bit positions
     in allocation order. *)
  build
    (Cfc_analysis.Subjects.of_mutex_checked ~l:p.Cfc_mutex.Mutex_intf.l
       ~n:p.Cfc_mutex.Mutex_intf.n alg)
    ~config

let detector ?config det (p : Cfc_mutex.Mutex_intf.params) =
  build
    (Cfc_analysis.Subjects.of_detector ~n:p.Cfc_mutex.Mutex_intf.n det)
    ~config

(* ------------------------------------------------------------------ *)
(* Dynamic position tracking: the set of graph nodes a process's next
   access may correspond to, advanced on every observed access.  A
   process whose accesses stop matching its graph (the bounded symbolic
   exploration under-covered its behavior) degrades permanently to
   unknown — no static claim is made about it again, and the exploration
   around it falls back to full expansion.

   Position sets are interned per tracker and process: a position is an
   int (a set id, or [top] for unknown), every set's footprint answers
   are computed once when it is interned, and each (set, register, op
   class) transition is memoised.  A warmed tracker therefore observes
   and answers without allocating.  The tables live in the tracker, not
   in [t], because one [t] serves many searches (a registry sweep, a
   bench's repeated runs) and each search starts its own tracker. *)

let top = -1

module Itbl = Hashtbl.Make (Int)

(* One interned position set and its answers, computed once. *)
type pset = {
  s_nodes : int list;  (* sorted *)
  s_next : fp option;  (* union of the nodes' [i_fp] *)
  s_future : fp option;  (* union of the nodes' [m_future] *)
  s_may_end : bool;
}

type interned = {
  x_model : model;
  x_ids : (int list, int) Hashtbl.t;  (* node set -> set id *)
  mutable x_sets : pset array;  (* set id -> set; grown by doubling *)
  x_trans : int Itbl.t;
      (* (set id, register, class id) packed into one int -> successor
         set id, or [top] when no node of the set matches *)
}

type tracker = { t : t; ix : interned option array; pos : int array }
type snap = int array

let intern x nodes =
  match Hashtbl.find_opt x.x_ids nodes with
  | Some id -> id
  | None ->
    let m = x.x_model in
    let union f =
      Some (List.fold_left (fun acc i -> fp_union acc (f i)) fp_empty nodes)
    in
    let ps =
      { s_nodes = nodes;
        s_next = union (fun i -> m.m_info.(i).i_fp);
        s_future = union (fun i -> m.m_future.(i));
        s_may_end = List.exists (fun i -> m.m_info.(i).i_may_end) nodes }
    in
    let id = Hashtbl.length x.x_ids in
    if id = Array.length x.x_sets then
      x.x_sets <- Array.append x.x_sets (Array.make (max 8 id) ps);
    x.x_sets.(id) <- ps;
    Hashtbl.add x.x_ids nodes id;
    id

(* Registers at or past [max_reg_bits] appear in no model (they would
   have overflowed the footprint masks), and class ids stay below 64. *)
let trans_key set ~reg ~cls = (((set * max_reg_bits) + reg) lsl 6) lor cls

let successor x set ~reg ~cls =
  let m = x.x_model in
  let matched =
    List.filter
      (fun i -> m.m_info.(i).i_reg = reg && m.m_info.(i).i_cls = cls)
      x.x_sets.(set).s_nodes
  in
  match matched with
  | [] -> top
  | _ ->
    let next =
      List.sort_uniq compare
        (List.concat_map (fun i -> Array.to_list m.m_succ.(i)) matched)
    in
    (* Past the last graph node the process either halts (and is never
       consulted again) or starts its body over (the harness [rounds]
       loop): restart the position at the entry. *)
    intern x (if next = [] then m.m_entry else next)

let track t ~nprocs =
  let ix =
    Array.init nprocs (fun pid ->
        if pid < Array.length t.models then
          Option.map
            (fun m ->
              { x_model = m; x_ids = Hashtbl.create 16; x_sets = [||];
                x_trans = Itbl.create 64 })
            t.models.(pid)
        else None)
  in
  let pos =
    Array.map
      (function Some x -> intern x x.x_model.m_entry | None -> top)
      ix
  in
  { t; ix; pos }

let snapshot tr = Array.copy tr.pos
let snapshot_into tr s = Array.blit tr.pos 0 s 0 (Array.length tr.pos)
let restore tr s = Array.blit s 0 tr.pos 0 (Array.length tr.pos)
let snapshot_pid_into tr s pid = s.(pid) <- tr.pos.(pid)
let restore_pid tr s pid = tr.pos.(pid) <- s.(pid)

let observe tr ~pid ~reg ~kind =
  let set = tr.pos.(pid) in
  if set <> top then
    match tr.ix.(pid) with
    | None -> ()
    | Some x ->
      if reg < 0 || reg >= max_reg_bits then tr.pos.(pid) <- top
      else begin
        let cls = class_id kind in
        let key = trans_key set ~reg ~cls in
        tr.pos.(pid) <-
          (match Itbl.find x.x_trans key with
          | next -> next
          | exception Not_found ->
            let next = successor x set ~reg ~cls in
            Itbl.add x.x_trans key next;
            next)
      end

let cycle_member tr ~pid ~reg ~kind =
  pid < Array.length tr.t.models
  && reg >= 0 && reg < max_reg_bits
  &&
  match tr.t.models.(pid) with
  | None -> false
  | Some m -> m.m_cycmask.(reg) land (1 lsl class_id kind) <> 0

(* The per-set answers of a process's current position; [None] (unknown)
   for [top].  Cached options, so no query allocates. *)
let next_fp tr pid =
  let set = tr.pos.(pid) in
  if set = top then None
  else match tr.ix.(pid) with Some x -> x.x_sets.(set).s_next | None -> None

let future_fp tr pid =
  let set = tr.pos.(pid) in
  if set = top then None
  else
    match tr.ix.(pid) with Some x -> x.x_sets.(set).s_future | None -> None

let known tr pid = tr.pos.(pid) <> top

let next_may_end tr pid =
  let set = tr.pos.(pid) in
  set = top
  || match tr.ix.(pid) with Some x -> x.x_sets.(set).s_may_end | None -> true
