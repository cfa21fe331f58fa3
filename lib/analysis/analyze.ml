open Cfc_runtime
open Cfc_core

type config = {
  max_forks : int;
  max_paths : int;
  max_steps : int;
  max_period : int;
}

let default_config =
  { max_forks = 3; max_paths = 400; max_steps = 2000; max_period = 8 }

type node = {
  n_reg : int;
  n_name : string;
  n_width : int;
  n_class : string;
  n_occ : int;
  mutable n_write : bool;
  mutable n_observes : bool;
  mutable n_cycle : bool;
  mutable n_may_end : bool;
  mutable n_baseline : int;
  mutable n_baseline_write : bool;
  mutable n_wvals : int list;
  mutable n_wvals_exact : bool;
  mutable n_spinvals : int list;
  mutable n_spinvals_exact : bool;
}

type key = int * string * int

(* Value sets on nodes are capped: past [max_vals] distinct values the
   set is dropped and marked inexact, and every consumer must fall back
   to "could be anything". *)
let max_vals = 8

let add_val vals exact v =
  if not exact then (vals, false)
  else if List.mem v vals then (vals, true)
  else if List.length vals >= max_vals then ([], false)
  else (v :: vals, true)

type graph = {
  g_nodes : (key, node) Hashtbl.t;
  g_edges : (key * key, unit) Hashtbl.t;
}

type variant_report = {
  vr_label : string;
  vr_graph : graph;
  vr_baseline : Measures.sample;
  vr_paths : int;
  vr_completed : key list list;
  vr_spin_regs : (int * string) list;
  vr_writes_line : int list;
  vr_writes_cycle : int list;
  vr_max_width : int;
}

type spin_class = Wait_free | Local_spin | Spin_on_shared

let spin_class_name = function
  | Wait_free -> "wait-free"
  | Local_spin -> "local-spin"
  | Spin_on_shared -> "spin-on-shared"

type report = {
  subject : Subjects.t;
  variants : variant_report list;
  static_cf : Measures.sample;
  nodes : int;
  edges : int;
  max_width : int;
  spin_class : spin_class;
}

(* ---------- one path ---------- *)

let bit_classes =
  Array.of_list
    (List.map (fun op -> "bit:" ^ Cfc_base.Ops.to_string op) Cfc_base.Ops.all)

let op_class : Event.access_kind -> string = function
  | A_read _ -> "read"
  | A_write _ -> "write"
  | A_field _ -> "write-field"
  | A_xchg _ -> "xchg"
  | A_cas _ -> "cas"
  | A_bit (op, _) -> bit_classes.(Cfc_base.Ops.to_index op)

let observes : Event.access_kind -> bool = function
  | A_read _ | A_xchg _ | A_cas _ -> true
  | A_bit (op, _) -> Cfc_base.Ops.returns_value op
  | A_write _ | A_field _ -> false

(* One recorded access of a path. *)
type step = {
  s_reg : Register.t;
  s_kind : Event.access_kind;
  s_class : string;  (* [op_class s_kind] *)
  s_value : int;
      (* observed pre-value for value-returning ops, written value for
         plain writes *)
  s_post : int;  (* the register's content right after the access *)
}

(* Raised by the recorder to end a path: its step budget is spent, or
   it closed a busy-wait cycle. *)
exception Cut

(* The recorder of one path, fed by the scheduler's sink.  A plan entry
   [(i, id, v)] injects pre-value [v] into register [id] just before
   access [i] (as if a remote process had just written it); the
   recorder applies it right after recording access [i - 1], which is
   the same point: a solo process makes no shared access in between,
   and by prefix determinism a child plan's access [i] is on the
   register its parent's was. *)
type path = {
  max_steps : int;
  max_period : int;
  fork_from : int;
      (* alternatives are collected from this access index on
         ([max_int]: the plan may not grow) *)
  mutable pending : (int * int * int) list;
  mutable recording : bool;
  mutable regs : Register.t array;  (* the arena's registers, by id *)
  mutable last : int array;
      (* last-known value by register id: the pre-value of an access
         whose event does not carry it (CAS, a bit op returning none) *)
  mutable steps_rev : step list;
  mutable nsteps : int;
  mutable alts_rev : (int * int * int) list;
      (* fork opportunities: [(i, id, v)] such that injecting [v] at
         access [i] could change the execution *)
  mutable period : int;
      (* length of the busy-wait cycle that cut the path, 0 if none *)
}

(* The adversarial value pool for a register: every value up to 4
   bits, else the corners [0; 1; 2; 2^w-1]. *)
let candidate_values ~width =
  if width <= 4 then List.init (1 lsl width) Fun.id
  else
    let top = if width >= 62 then max_int else (1 lsl width) - 1 in
    [ 0; 1; 2; top ]

let inject t =
  match t.pending with
  | (i, id, v) :: rest when i = t.nsteps ->
    Register.restore t.regs.(id) v;
    t.last.(id) <- v;
    t.pending <- rest
  | _ -> ()

(* Registers are allocated by the variant's [make], before recording
   starts, so the arrays cover every register the body accesses. *)
let start_recording t arena =
  t.regs <- Array.of_list (Memory.registers arena);
  t.last <- Array.map (fun r -> r.Register.value) t.regs;
  t.recording <- true;
  inject t

let add_alternatives t i (r : Register.t) kind value =
  let add v = if v <> value then t.alts_rev <- (i, r.id, v) :: t.alts_rev in
  match kind with
  | Event.A_read _ | A_xchg _ | A_cas _ ->
    List.iter add (candidate_values ~width:r.width)
  | A_bit (op, _) when Cfc_base.Ops.returns_value op -> add (1 - value)
  | A_bit _ | A_write _ | A_field _ -> ()

let rec drop k l =
  match l with _ :: tl when k > 0 -> drop (k - 1) tl | _ -> l

(* The first [k] steps of [a] and of [b] agree pairwise on (register,
   op class, observed value). *)
let rec agree k a b =
  k = 0
  ||
  match (a, b) with
  | x :: a, y :: b ->
    x.s_reg.Register.id = y.s_reg.Register.id
    && String.equal x.s_class y.s_class
    && x.s_value = y.s_value
    && agree (k - 1) a b
  | _ -> false

(* Busy-wait recognition: the newest [3p] steps are three identical
   repetitions of a length-[p] pattern, for the least [p] up to
   [max_period]; 0 when there is none.  A deterministic solo process
   whose observations repeat is looping.  Walks the list in place, so
   the check allocates nothing. *)
let rec spin_period t p =
  if p > t.max_period || 3 * p > t.nsteps then 0
  else if agree (2 * p) t.steps_rev (drop p t.steps_rev) then p
  else spin_period t (p + 1)

let record t ~pid:_ = function
  | Event.Access (r, kind) when t.recording ->
    if t.nsteps >= t.max_steps then raise Cut;
    let id = r.Register.id in
    let value =
      match kind with
      | A_read v | A_write v | A_field (_, _, v) | A_xchg (_, v)
      | A_bit (_, Some v) ->
        v
      | A_cas _ | A_bit (_, None) -> t.last.(id)
    in
    t.last.(id) <- r.value;
    let i = t.nsteps in
    t.nsteps <- i + 1;
    t.steps_rev <-
      { s_reg = r; s_kind = kind; s_class = op_class kind; s_value = value;
        s_post = r.value }
      :: t.steps_rev;
    if i >= t.fork_from then add_alternatives t i r kind value;
    let p = spin_period t 1 in
    if p > 0 then begin
      t.period <- p;
      raise Cut
    end;
    inject t
  | _ -> ()

type path_end = P_done | P_cut | P_raised of exn

(* Run one path as the only process of a scheduler over [Sim_mem],
   every step granted an unbounded run-ahead: the process runs inline
   up to its next pause or its end.  The subject's [context] runs
   unrecorded.  A [Cut] raised on an inline access ends the process as
   errored; one raised on the access that opens a step escapes the
   step. *)
let run_variant ~(config : config) (v : Subjects.variant) ~plan ~fork_from =
  let t =
    { max_steps = config.max_steps; max_period = config.max_period;
      fork_from; pending = plan; recording = false; regs = [||];
      last = [||]; steps_rev = []; nsteps = 0; alts_rev = []; period = 0 }
  in
  let arena = Memory.create () in
  let solo = v.Subjects.make (Sim_mem.mem arena) in
  let run () =
    List.iter (fun f -> f ()) solo.Subjects.context;
    start_recording t arena;
    solo.Subjects.body ()
  in
  let sched =
    Scheduler.of_spawn ~sink:(record t) ~nprocs:1 ~spawn:(fun _ -> run)
  in
  let rec drive () =
    match Scheduler.status sched 0 with
    | Runnable -> (
      match Scheduler.step_ahead sched 0 ~ahead:max_int with
      | _ -> drive ()
      | exception Cut -> P_cut)
    | Halted -> P_done
    | Errored Cut -> P_cut
    | Errored e -> P_raised e
    | Crashed -> P_raised Proc.Crashed
  in
  let ending = drive () in
  Scheduler.dispose sched;
  (t, ending)

(* ---------- graph construction ---------- *)

let sample_of_steps steps =
  let seen = Hashtbl.create 16 in
  let seen_r = Hashtbl.create 16 in
  let seen_w = Hashtbl.create 16 in
  let n = ref 0 and reads = ref 0 and writes = ref 0 in
  List.iter
    (fun s ->
      incr n;
      let id = s.s_reg.Register.id in
      Hashtbl.replace seen id ();
      if Event.is_write s.s_kind then begin
        incr writes;
        Hashtbl.replace seen_w id ()
      end
      else begin
        incr reads;
        Hashtbl.replace seen_r id ()
      end)
    steps;
  {
    Measures.steps = !n;
    registers = Hashtbl.length seen;
    read_steps = !reads;
    write_steps = !writes;
    read_registers = Hashtbl.length seen_r;
    write_registers = Hashtbl.length seen_w;
  }

(* Merge one path into the graph and return its key sequence.  Node
   identity is (register, op class, occurrence along the path), so
   re-executions of the same instruction in a loop become distinct nodes
   up to the point where the cycle was recognized; the last [period]
   steps are the detected cycle. *)
let merge_path g ~baseline ~ended ~period steps =
  let occs = Hashtbl.create 16 in
  let nsteps = List.length steps in
  let prev = ref None in
  let keys = ref [] in
  let first_cycle_key = ref None in
  let last_cycle_key = ref None in
  List.iteri
    (fun pos s ->
      let id = s.s_reg.Register.id in
      let cls = s.s_class in
      let write = Event.is_write s.s_kind in
      let observes = observes s.s_kind in
      let occ =
        let o = Option.value ~default:0 (Hashtbl.find_opt occs (id, cls)) in
        Hashtbl.replace occs (id, cls) (o + 1);
        o
      in
      let k = (id, cls, occ) in
      let node =
        match Hashtbl.find_opt g.g_nodes k with
        | Some n -> n
        | None ->
          let n =
            {
              n_reg = id;
              n_name = s.s_reg.Register.name;
              n_width = s.s_reg.Register.width;
              n_class = cls;
              n_occ = occ;
              n_write = false;
              n_observes = false;
              n_cycle = false;
              n_may_end = false;
              n_baseline = -1;
              n_baseline_write = false;
              n_wvals = [];
              n_wvals_exact = true;
              n_spinvals = [];
              n_spinvals_exact = true;
            }
          in
          Hashtbl.add g.g_nodes k n;
          n
      in
      node.n_write <- node.n_write || write;
      node.n_observes <- node.n_observes || observes;
      if write then begin
        let vals, exact = add_val node.n_wvals node.n_wvals_exact s.s_post in
        node.n_wvals <- vals;
        node.n_wvals_exact <- exact
      end;
      if period > 0 && pos >= nsteps - period then begin
        node.n_cycle <- true;
        if observes then begin
          let vals, exact =
            add_val node.n_spinvals node.n_spinvals_exact s.s_value
          in
          node.n_spinvals <- vals;
          node.n_spinvals_exact <- exact
        end;
        if !first_cycle_key = None then first_cycle_key := Some k;
        last_cycle_key := Some k
      end;
      if ended && pos = nsteps - 1 then node.n_may_end <- true;
      if baseline then begin
        node.n_baseline <- pos;
        node.n_baseline_write <- write
      end;
      (match !prev with
      | Some pk -> Hashtbl.replace g.g_edges (pk, k) ()
      | None -> ());
      prev := Some k;
      keys := k :: !keys)
    steps;
  (* the busy-wait back edge *)
  (match (!last_cycle_key, !first_cycle_key) with
  | Some a, Some b -> Hashtbl.replace g.g_edges (a, b) ()
  | _ -> ());
  List.rev !keys

(* ---------- per-variant exploration ---------- *)

let explore ~(config : config) (v : Subjects.variant) =
  let g = { g_nodes = Hashtbl.create 64; g_edges = Hashtbl.create 64 } in
  (* Breadth-first over plans.  A child plan extends its parent by one
     injection past the parent's last, and the injections one path
     offers are distinct, so no plan is queued twice; only the first
     [max_paths] plans queued ever run, so queuing stops there. *)
  let queue = Queue.create () in
  Queue.add [] queue;
  let queued = ref 1 in
  let paths = ref 0 in
  let baseline = ref Measures.zero in
  let completed = ref [] in
  while (not (Queue.is_empty queue)) && !paths < config.max_paths do
    let plan = Queue.take queue in
    incr paths;
    let fork_from =
      if List.length plan >= config.max_forks || !queued >= config.max_paths
      then max_int
      else match List.rev plan with [] -> 0 | (i, _, _) :: _ -> i + 1
    in
    let path, ending = run_variant ~config v ~plan ~fork_from in
    let steps = List.rev path.steps_rev in
    let is_baseline = plan = [] in
    if is_baseline then begin
      (match ending with
      | P_raised e -> raise e
      | P_cut ->
        failwith "Analyze: solo contention-free execution did not terminate"
      | P_done -> ());
      baseline := sample_of_steps steps
    end;
    let infeasible =
      match ending with P_raised _ -> not is_baseline | _ -> false
    in
    if not infeasible then begin
      let ended =
        match ending with P_done -> true | P_cut | P_raised _ -> false
      in
      let keys =
        merge_path g ~baseline:is_baseline ~ended ~period:path.period steps
      in
      if ended then completed := keys :: !completed;
      List.iter
        (fun alt ->
          if !queued < config.max_paths then begin
            incr queued;
            Queue.add (plan @ [ alt ]) queue
          end)
        (List.rev path.alts_rev)
    end
  done;
  (g, !baseline, !paths, List.rev !completed)

let analyze_variant ~config (v : Subjects.variant) =
  let g, baseline, paths, completed = explore ~config v in
  let spin_regs = Hashtbl.create 8 in
  let w_line = Hashtbl.create 8 in
  let w_cycle = Hashtbl.create 8 in
  let max_width = ref 0 in
  Hashtbl.iter
    (fun _ n ->
      max_width := max !max_width n.n_width;
      if n.n_cycle && n.n_observes then
        Hashtbl.replace spin_regs n.n_reg n.n_name;
      if n.n_write then
        Hashtbl.replace (if n.n_cycle then w_cycle else w_line) n.n_reg ())
    g.g_nodes;
  let keys h = List.sort compare (Hashtbl.fold (fun k _ l -> k :: l) h []) in
  {
    vr_label = v.Subjects.v_label;
    vr_graph = g;
    vr_baseline = baseline;
    vr_paths = paths;
    vr_completed = completed;
    vr_spin_regs =
      List.sort compare
        (Hashtbl.fold (fun r name l -> (r, name) :: l) spin_regs []);
    vr_writes_line = keys w_line;
    vr_writes_cycle = keys w_cycle;
    vr_max_width = !max_width;
  }

(* ---------- whole-subject classification ---------- *)

let spin_classify variants =
  let spins vr = vr.vr_spin_regs <> [] in
  if not (List.exists spins variants) then Wait_free
  else
    let written_in_remote_cycle vr (r, _) =
      List.exists
        (fun other ->
          other.vr_label <> vr.vr_label && List.mem r other.vr_writes_cycle)
        variants
    in
    if
      List.exists
        (fun vr -> List.exists (written_in_remote_cycle vr) vr.vr_spin_regs)
        variants
    then Spin_on_shared
    else Local_spin

let analyze ?(config = default_config) (subject : Subjects.t) =
  let variants = List.map (analyze_variant ~config) subject.Subjects.variants in
  {
    subject;
    variants;
    static_cf =
      List.fold_left
        (fun acc vr -> Measures.max_sample acc vr.vr_baseline)
        Measures.zero variants;
    nodes =
      List.fold_left (fun n vr -> n + Hashtbl.length vr.vr_graph.g_nodes) 0
        variants;
    edges =
      List.fold_left (fun n vr -> n + Hashtbl.length vr.vr_graph.g_edges) 0
        variants;
    max_width = List.fold_left (fun w vr -> max w vr.vr_max_width) 0 variants;
    spin_class = spin_classify variants;
  }
