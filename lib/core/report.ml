open Cfc_base
open Cfc_mutex

let fmtf = Printf.sprintf "%.2f"

let mutex_table_symbolic () =
  let t =
    Texttab.create ~header:[ "measure"; "lower bound"; "upper bound" ]
  in
  Texttab.add_row t
    [ "contention-free register"; "sqrt(log n / (l + log log n))  [Thm 2]";
      "3 ceil(log n / l)  [Thm 3]" ];
  Texttab.add_row t
    [ "contention-free step"; "log n / (l - 2 + 3 log log n)  [Thm 1]";
      "7 ceil(log n / l)  [Thm 3]" ];
  Texttab.add_row t
    [ "worst-case register"; "sqrt(log n / (l + log log n))  [Thm 2]";
      "O(log n)  [Kes82]" ];
  Texttab.add_row t [ "worst-case step"; "unbounded  [AT92]"; "-" ];
  t

let tree_depth ~n ~l = Tree.depth ~n ~l

let mutex_table ~n ~l =
  let p = { Mutex_intf.n; l } in
  let tree = Mutex_harness.contention_free Registry.tree p in
  let d = tree_depth ~n ~l in
  (* Kessels' runs at large n outlast the step budget: the cell then
     says it is a sampled lower bound and what each cut run completed. *)
  let kessels, cut =
    List.split
      (Mutex_harness.wc_sampled ~seeds:[ 1; 2; 3 ] Registry.kessels_tournament
         (Mutex_intf.params n) ~entry:true)
  in
  let regs =
    List.fold_left (fun acc s -> max acc s.Measures.registers) 0 kessels
  in
  let kessels_registers =
    match List.filter_map Fun.id cut with
    | [] -> string_of_int regs
    | acquired ->
      Printf.sprintf
        ">= %d (sampled: %d of %d runs cut by the step budget, after %s \
         acquisitions)"
        regs (List.length acquired) (List.length cut)
        (String.concat "/" (List.map string_of_int acquired))
  in
  let unbounded = Mutex_harness.lamport_unbounded_entry ~spin:(50 * n) in
  let t =
    Texttab.create
      ~header:[ "measure"; "lower bound"; "measured";
                "paper upper (2^l nodes)"; "ours (2^l-1 nodes)"; "witness" ]
  in
  Texttab.add_row t
    [ "contention-free register";
      fmtf (Bounds.mutex_cf_register_lower ~n ~l);
      string_of_int tree.Mutex_harness.max.Measures.registers;
      string_of_int (Bounds.mutex_cf_register_upper ~n ~l);
      string_of_int (3 * d);
      "tree-lamport (Thm 3)" ];
  Texttab.add_row t
    [ "contention-free step";
      fmtf (Bounds.mutex_cf_step_lower ~n ~l);
      string_of_int tree.Mutex_harness.max.Measures.steps;
      string_of_int (Bounds.mutex_cf_step_upper ~n ~l);
      string_of_int (7 * d);
      "tree-lamport (Thm 3)" ];
  Texttab.add_row t
    [ "worst-case register";
      fmtf (Bounds.mutex_cf_register_lower ~n ~l);
      kessels_registers;
      string_of_int (Bounds.mutex_wc_register_upper ~n) ^ " (4 log n)"; "-";
      "kessels tournament (Kes82), atomicity 1" ];
  Texttab.add_row t
    [ "worst-case step"; "unbounded (AT92)";
      Printf.sprintf ">= %d and growing" unbounded.Measures.steps; "-"; "-";
      Printf.sprintf "adversarial run, spin=%d" (50 * n) ];
  t

let thm_sweep ~ns ~ls =
  let t =
    Texttab.create
      ~header:[ "n"; "l"; "thm1 lower"; "tree cf steps"; "7ceil(logn/l)";
                "7d"; "thm2 lower"; "tree cf regs"; "3ceil(logn/l)"; "3d" ]
  in
  List.iter
    (fun n ->
      List.iter
        (fun l ->
          let p = { Mutex_intf.n; l } in
          if Tree.supports p then begin
            let r = Mutex_harness.contention_free Registry.tree p in
            let d = tree_depth ~n ~l in
            Texttab.add_row t
              [ string_of_int n; string_of_int l;
                fmtf (Bounds.mutex_cf_step_lower ~n ~l);
                string_of_int r.Mutex_harness.max.Measures.steps;
                string_of_int (Bounds.mutex_cf_step_upper ~n ~l);
                string_of_int (7 * d);
                fmtf (Bounds.mutex_cf_register_lower ~n ~l);
                string_of_int r.Mutex_harness.max.Measures.registers;
                string_of_int (Bounds.mutex_cf_register_upper ~n ~l);
                string_of_int (3 * d) ]
          end)
        ls;
      Texttab.add_sep t)
    ns;
  t

let naming_table_symbolic () =
  let t =
    Texttab.create
      ~header:
        ("measure"
        :: List.map (fun (c, _, _, _, _) -> c) Bounds.naming_table)
  in
  let row name get =
    Texttab.add_row t
      (name
      :: List.map
           (fun (_, cfr, cfs, wcr, wcs) ->
             Bounds.cell_to_string (get (cfr, cfs, wcr, wcs)))
           Bounds.naming_table)
  in
  row "c-f register" (fun (a, _, _, _) -> a);
  row "c-f step" (fun (_, b, _, _) -> b);
  row "w-c register" (fun (_, _, c, _) -> c);
  row "w-c step" (fun (_, _, _, d) -> d);
  t

(* Best measured value per column and measure among the column's
   algorithms. *)
let naming_measured ~n =
  List.map
    (fun (col, algs) ->
      let cf =
        List.filter_map
          (fun alg ->
            let (module A : Cfc_naming.Naming_intf.ALG) = alg in
            if A.supports ~n then
              Some (Naming_harness.contention_free alg ~n).Naming_harness.max
            else None)
          algs
      in
      let wc =
        List.filter_map
          (fun alg ->
            let (module A : Cfc_naming.Naming_intf.ALG) = alg in
            if A.supports ~n then
              Some (Naming_harness.wc_estimate ~seeds:[ 1; 2; 3 ] alg ~n)
            else None)
          algs
      in
      let best f = function
        | [] -> None  (* no algorithm in this column supports this n *)
        | xs -> Some (List.fold_left (fun acc s -> min acc (f s)) max_int xs)
      in
      ( col,
        best (fun s -> s.Measures.registers) cf,
        best (fun s -> s.Measures.steps) cf,
        best (fun s -> s.Measures.registers) wc,
        best (fun s -> s.Measures.steps) wc ))
    Cfc_naming.Registry.columns

let naming_table ~n =
  let measured = naming_measured ~n in
  let t =
    Texttab.create
      ~header:
        ("measure (theory/measured)"
        :: List.map (fun (c, _, _, _, _) -> c) Bounds.naming_table)
  in
  let cell theory meas =
    match meas with
    | Some v -> Printf.sprintf "%d / %d" (Bounds.cell_value theory ~n) v
    | None -> Printf.sprintf "%d / n/a" (Bounds.cell_value theory ~n)
  in
  let row name get_th get_ms =
    Texttab.add_row t
      (name
      :: List.map2
           (fun (_, cfr, cfs, wcr, wcs) (_, mcfr, mcfs, mwcr, mwcs) ->
             cell (get_th (cfr, cfs, wcr, wcs)) (get_ms (mcfr, mcfs, mwcr, mwcs)))
           Bounds.naming_table measured)
  in
  row "c-f register" (fun (a, _, _, _) -> a) (fun (a, _, _, _) -> a);
  row "c-f step" (fun (_, b, _, _) -> b) (fun (_, b, _, _) -> b);
  row "w-c register" (fun (_, _, c, _) -> c) (fun (_, _, c, _) -> c);
  row "w-c step" (fun (_, _, _, d) -> d) (fun (_, _, _, d) -> d);
  t

let naming_sweep ~ns =
  let t =
    Texttab.create
      ~header:[ "algorithm"; "n"; "cf steps"; "cf regs"; "wc steps (est)";
                "wc regs (est)" ]
  in
  List.iter
    (fun alg ->
      let (module A : Cfc_naming.Naming_intf.ALG) = alg in
      List.iter
        (fun n ->
          if A.supports ~n then begin
            let cf = Naming_harness.contention_free alg ~n in
            let wc = Naming_harness.wc_estimate ~seeds:[ 1; 2 ] alg ~n in
            Texttab.add_row t
              [ A.name; string_of_int n;
                string_of_int cf.Naming_harness.max.Measures.steps;
                string_of_int cf.Naming_harness.max.Measures.registers;
                string_of_int wc.Measures.steps;
                string_of_int wc.Measures.registers ]
          end)
        ns;
      Texttab.add_sep t)
    Cfc_naming.Registry.all;
  t

let detection_table ~ns ~ls =
  let t =
    Texttab.create
      ~header:[ "n"; "l"; "ceil(logn/l)"; "wc steps (measured)";
                "4*ceil(logn/l)"; "cf steps" ]
  in
  List.iter
    (fun n ->
      List.iter
        (fun l ->
          let p = { Mutex_intf.n; l } in
          let wc =
            Detect_harness.wc_estimate ~seeds:[ 1; 2; 3 ]
              Registry.splitter_tree p
          in
          let cf = Detect_harness.contention_free Registry.splitter_tree p in
          let d = Ixmath.ceil_div (Ixmath.ceil_log2 (max 2 n)) l in
          Texttab.add_row t
            [ string_of_int n; string_of_int l; string_of_int d;
              string_of_int wc.Measures.steps; string_of_int (4 * d);
              string_of_int cf.Detect_harness.max.Measures.steps ])
        ls)
    ns;
  t

let recoverable_table ~ns =
  (* Every recoverable lock in the registry (not a hard-coded one), each
     against its own closed forms; RMR is the recovery remote-reference
     count under the cold-cache model, uniform across crash points for
     both current locks.  A [stalled] count other than 0 is a
     recoverable-to-deadlocking regression. *)
  let t =
    Texttab.create
      ~header:[ "algorithm"; "n"; "cf steps (pred/meas)";
                "cf regs (pred/meas)"; "recovery held (pred/meas)";
                "recovery ~held (pred/meas)"; "recovery rmr (pred/meas)";
                "crash points"; "stalled" ]
  in
  List.iter
    (fun (module A : Mutex_intf.ALG) ->
      List.iter
        (fun n ->
          let p = Mutex_intf.params n in
          if A.supports p then begin
            let forms = Option.get (A.recovery p) in
            let cf = Mutex_harness.contention_free (module A : Mutex_intf.ALG) p in
            let sweep = Recovery_harness.solo_sweep (module A) p in
            (* The held/not-held columns use the same region mapping as
               the static recovery subjects: a crash in [Critical] is
               the held form, a crash in [Trying]/[Remainder] the
               not-held form.  Mid-exit crashes sit between the two
               (the release may or may not have completed) — they count
               toward the rmr column and the crash-point total, and the
               core tests assert each one matches one of the forms. *)
            let in_regions rs =
              List.filter
                (fun (pt : Recovery_harness.sweep_point) ->
                  List.mem pt.Recovery_harness.crash_region rs)
                sweep
            in
            let held = in_regions [ Cfc_runtime.Event.Critical ]
            and not_held =
              in_regions
                [ Cfc_runtime.Event.Trying; Cfc_runtime.Event.Remainder ]
            in
            let pm pred meas = Printf.sprintf "%d / %d" pred meas in
            let opt_pred = function Some v -> string_of_int v | None -> "-" in
            let max_rmr pts =
              List.fold_left
                (fun acc (pt : Recovery_harness.sweep_point) ->
                  match pt.Recovery_harness.outcome with
                  | Recovery_harness.Recovered { rmr; _ } -> max acc rmr
                  | Recovery_harness.Stalled -> acc)
                0 pts
            in
            Texttab.add_row t
              [ A.name; string_of_int n;
                Printf.sprintf "%s / %d"
                  (opt_pred (A.predicted_cf_steps p))
                  cf.Mutex_harness.max.Measures.steps;
                Printf.sprintf "%s / %d"
                  (opt_pred (A.predicted_cf_registers p))
                  cf.Mutex_harness.max.Measures.registers;
                pm forms.Mutex_intf.rec_steps_held
                  (Recovery_harness.max_path held).Measures.steps;
                pm forms.Mutex_intf.rec_steps_not_held
                  (Recovery_harness.max_path not_held).Measures.steps;
                pm
                  (max forms.Mutex_intf.rec_registers_held
                     forms.Mutex_intf.rec_registers_not_held)
                  (max_rmr sweep);
                string_of_int (List.length sweep);
                string_of_int (List.length (Recovery_harness.stalled sweep)) ]
          end)
        ns)
    Registry.recoverable;
  t

let faults_table ~alg ~n ~pairs ~seeds =
  let p = Mutex_intf.params n in
  let t =
    Texttab.create
      ~header:[ "seed"; "fault plan"; "stopped"; "steps"; "recoveries";
                "max recovery steps"; "safety" ]
  in
  let worst = ref None in
  List.iter
    (fun seed ->
      let r, plan, violation = Recovery_harness.chaos ~pairs ~seed alg p in
      let out = r.Adversary.outcome in
      (match (!worst, out.Cfc_runtime.Runner.stopped) with
      | None, (Cfc_runtime.Runner.Out_of_steps | Cfc_runtime.Runner.Picker_done)
        -> worst := Some out
      | _ -> ());
      let paths = Measures.Online.recovery_paths r.Adversary.online in
      Texttab.add_row t
        [ string_of_int seed;
          Format.asprintf "%a" Cfc_runtime.Fault.pp_plan plan;
          Format.asprintf "%a" Cfc_runtime.Runner.pp_stopped
            out.Cfc_runtime.Runner.stopped;
          string_of_int out.Cfc_runtime.Runner.total_steps;
          string_of_int (List.length paths);
          string_of_int
            (List.fold_left (fun acc (_, s) -> max acc s.Measures.steps) 0
               paths);
          (match violation with
          | None -> "ok"
          | Some v -> Format.asprintf "%a" Spec.pp_violation v) ])
    seeds;
  (t, !worst)

let unbounded_table ~spins =
  let t =
    Texttab.create
      ~header:[ "adversary spin parameter"; "winner entry steps" ]
  in
  List.iter
    (fun spin ->
      let s = Mutex_harness.lamport_unbounded_entry ~spin in
      Texttab.add_row t [ string_of_int spin; string_of_int s.Measures.steps ])
    spins;
  t
