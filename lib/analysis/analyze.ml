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

type path_end = P_done | P_cut of Sym_mem.cut_reason | P_raised of exn

let run_variant ~config (v : Subjects.variant) ~plan =
  let ctx =
    Sym_mem.create ~max_steps:config.max_steps ~max_period:config.max_period
      ~plan ()
  in
  let mem = Sym_mem.mem ctx in
  let solo = v.Subjects.make mem in
  List.iter (fun f -> f ()) solo.Subjects.context;
  Sym_mem.start_recording ctx;
  let ending =
    match solo.Subjects.body () with
    | () -> P_done
    | exception Sym_mem.Cut r -> P_cut r
    | exception e -> P_raised e
  in
  (ctx, ending)

(* ---------- graph construction ---------- *)

let sample_of_steps steps =
  let seen = Hashtbl.create 16 in
  let seen_r = Hashtbl.create 16 in
  let seen_w = Hashtbl.create 16 in
  let n = ref 0 and reads = ref 0 and writes = ref 0 in
  List.iter
    (fun (s : Sym_mem.step) ->
      incr n;
      let id = s.s_reg.Register.id in
      Hashtbl.replace seen id ();
      if s.s_write then begin
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

let observes : Sym_mem.op -> bool = function
  | O_read | O_xchg | O_cas _ -> true
  | O_bit b -> Cfc_base.Ops.returns_value b
  | O_write | O_field _ -> false

(* Merge one path into the graph and return its key sequence.  Node
   identity is (register, op class, occurrence along the path), so
   re-executions of the same instruction in a loop become distinct nodes
   up to the point where the cycle was recognized; [cycle] holds the
   trace indices of the detected period. *)
let merge_path g ~baseline ~ended ~cycle steps =
  let occs = Hashtbl.create 16 in
  let in_cycle i = List.exists (fun (s : Sym_mem.step) -> s.s_index = i) cycle in
  let nsteps = List.length steps in
  let prev = ref None in
  let keys = ref [] in
  let first_cycle_key = ref None in
  let last_cycle_key = ref None in
  List.iteri
    (fun pos (s : Sym_mem.step) ->
      let id = s.s_reg.Register.id in
      let cls = Sym_mem.op_class s.s_op in
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
      node.n_write <- node.n_write || s.s_write;
      node.n_observes <- node.n_observes || observes s.s_op;
      if s.s_write then begin
        let vals, exact = add_val node.n_wvals node.n_wvals_exact s.s_post in
        node.n_wvals <- vals;
        node.n_wvals_exact <- exact
      end;
      if in_cycle s.s_index then begin
        node.n_cycle <- true;
        if observes s.s_op then begin
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
        node.n_baseline_write <- s.s_write
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

let explore ~config (v : Subjects.variant) =
  let g = { g_nodes = Hashtbl.create 64; g_edges = Hashtbl.create 64 } in
  let queue = Queue.create () in
  Queue.add [] queue;
  let seen_plans = Hashtbl.create 64 in
  Hashtbl.add seen_plans [] ();
  let paths = ref 0 in
  let baseline = ref Measures.zero in
  let completed = ref [] in
  while (not (Queue.is_empty queue)) && !paths < config.max_paths do
    let plan = Queue.take queue in
    incr paths;
    let ctx, ending = run_variant ~config v ~plan in
    let steps = Sym_mem.steps ctx in
    let is_baseline = plan = [] in
    if is_baseline then begin
      (match ending with
      | P_raised e -> raise e
      | P_cut _ ->
        failwith "Analyze: solo contention-free execution did not terminate"
      | P_done -> ());
      baseline := sample_of_steps steps
    end;
    let infeasible =
      match ending with P_raised _ -> not is_baseline | _ -> false
    in
    if not infeasible then begin
      let cycle = Option.value ~default:[] (Sym_mem.spin_cycle ctx) in
      let ended = match ending with P_done -> true | P_cut _ | P_raised _ -> false in
      let keys = merge_path g ~baseline:is_baseline ~ended ~cycle steps in
      if ended then completed := keys :: !completed;
      if List.length plan < config.max_forks then begin
        let last =
          match List.rev plan with [] -> -1 | (i, _) :: _ -> i
        in
        List.iter
          (fun (i, value) ->
            if i > last then begin
              let child = plan @ [ (i, value) ] in
              if not (Hashtbl.mem seen_plans child) then begin
                Hashtbl.add seen_plans child ();
                Queue.add child queue
              end
            end)
          (Sym_mem.alternatives ctx)
      end
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
