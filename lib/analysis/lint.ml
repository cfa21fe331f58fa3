open Cfc_base
open Cfc_core

type severity = Error | Warning

type violation = { severity : severity; code : string; detail : string }

type row = {
  report : Analyze.report;
  product : Product.t;
  measured : Measures.sample;
  violations : violation list;
}

type outcome = {
  rows : row list;
  source_findings : violation list;
  errors : int;
  warnings : int;
}

let severity_name = function Error -> "error" | Warning -> "warning"

(* ---------- the per-algorithm checks ---------- *)

let check_subject ?config (subject : Subjects.t) =
  let report = Analyze.analyze ?config subject in
  let product = Product.of_report ?config report in
  let measured = subject.Subjects.measured () in
  let v = ref [] in
  let push severity code detail = v := { severity; code; detail } :: !v in
  let static = report.Analyze.static_cf in
  (match subject.Subjects.predicted_steps with
  | Some p when p <> static.Measures.steps ->
    push Error "cf-steps"
      (Printf.sprintf "static %d steps but closed form says %d"
         static.Measures.steps p)
  | _ -> ());
  (match subject.Subjects.predicted_registers with
  | Some p when p <> static.Measures.registers ->
    push Error "cf-registers"
      (Printf.sprintf "static %d registers but closed form says %d"
         static.Measures.registers p)
  | _ -> ());
  if static <> measured then
    push Error "static-vs-measured"
      (Format.asprintf "static (%a) disagrees with trace-measured (%a)"
         Measures.pp_sample static Measures.pp_sample measured);
  (match subject.Subjects.declared_atomicity with
  | Some l when report.Analyze.max_width > l ->
    push Error "atomicity"
      (Printf.sprintf
         "accesses a %d-bit register but declares atomicity l=%d"
         report.Analyze.max_width l)
  | _ -> ());
  List.iter
    (fun (r : Product.race) ->
      push Error "harmful-race"
        (Printf.sprintf "on %s: %s | %s: %s | %s: %s" r.Product.r_name
           r.Product.r_note r.Product.r_left.Product.p_group
           r.Product.r_left.Product.p_path r.Product.r_right.Product.p_group
           r.Product.r_right.Product.p_path))
    (Product.harmful product);
  if product.Product.liveness = Product.Deadlock_risk then
    push Warning "liveness"
      "every write that can break some busy-wait is guarded by a volatile \
       register (the lost-wakeup shape); the protocol can deadlock";
  { report; product; measured; violations = List.rev !v }

(* ---------- determinism scan ---------- *)

(* Tokens assembled from pieces so the scanner never flags its own
   source. *)
let random_mod = "Random" ^ "."
let unix_mod = "Unix" ^ "."
let sys_mod = "Sys" ^ "."

(* A wall-clock read is permitted only on a line carrying this marker —
   used by the Bechamel-adjacent benchmark timers, where wall time is
   the measurement itself, never an input to the system under test. *)
let wall_clock_marker = "lint-allow: wall" ^ "-clock"

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

let line_contains line sub =
  let n = String.length line and m = String.length sub in
  let rec at i = i + m <= n && (String.sub line i m = sub || at (i + 1)) in
  at 0

(* Call [f member end_pos] for every occurrence of [prefix] (not preceded
   by an identifier character) followed by the longest identifier run. *)
let each_member line prefix f =
  let n = String.length line and fn = String.length prefix in
  let i = ref 0 in
  while !i + fn <= n do
    if
      String.sub line !i fn = prefix
      && (!i = 0 || not (is_ident_char line.[!i - 1]))
    then begin
      let j = ref (!i + fn) in
      while !j < n && is_ident_char line.[!j] do
        incr j
      done;
      f (String.sub line (!i + fn) (!j - (!i + fn))) !j;
      i := max (!i + 1) !j
    end
    else incr i
  done

let scan_line ~path ~lineno line acc =
  let acc = ref acc in
  let push code detail =
    acc :=
      { severity = Error; code; detail = Printf.sprintf "%s:%d: %s" path lineno detail }
      :: !acc
  in
  each_member line random_mod (fun member j ->
      if member <> "State" then
        push "nondeterminism"
          (Printf.sprintf
             "global randomness (%s%s); only seeded Random.State is allowed"
             random_mod member)
      else
        (* State's make_self_init seeds from the environment — as
           nondeterministic as the global functions. *)
        let tail = "." ^ "make_self_init" in
        let tn = String.length tail in
        if
          j + tn <= String.length line
          && String.sub line j tn = tail
          && (j + tn = String.length line || not (is_ident_char line.[j + tn]))
        then
          push "nondeterminism"
            (Printf.sprintf
               "environment-seeded randomness (%sState%s); use an explicit \
                seed"
               random_mod tail));
  if not (line_contains line wall_clock_marker) then begin
    each_member line unix_mod (fun member _ ->
        if member = "gettimeofday" then
          push "wall-clock"
            (Printf.sprintf
               "wall-clock read (%s%s) outside a benchmark timer; mark the \
                line with '%s' if it only feeds a measurement"
               unix_mod member wall_clock_marker));
    each_member line sys_mod (fun member _ ->
        if member = "time" then
          push "wall-clock"
            (Printf.sprintf
               "wall-clock read (%s%s) outside a benchmark timer; mark the \
                line with '%s' if it only feeds a measurement"
               sys_mod member wall_clock_marker))
  end;
  !acc

let scan_file path acc =
  let ic = open_in path in
  let acc = ref acc in
  let lineno = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       acc := scan_line ~path ~lineno:!lineno line !acc
     done
   with End_of_file -> ());
  close_in ic;
  !acc

let scanned_dirs = [ "lib"; "bench"; "bin"; "examples" ]

let scan_sources ~root =
  let rec walk dir acc =
    Array.fold_left
      (fun acc entry ->
        let path = Filename.concat dir entry in
        if Sys.is_directory path then walk path acc
        else if
          Filename.check_suffix entry ".ml"
          || Filename.check_suffix entry ".mli"
        then scan_file path acc
        else acc)
      acc
      (Sys.readdir dir)
  in
  List.rev
    (List.fold_left
       (fun acc d ->
         let dir = Filename.concat root d in
         if Sys.file_exists dir && Sys.is_directory dir then walk dir acc
         else acc)
       [] scanned_dirs)

let find_root () =
  let marker root = Filename.concat root (Filename.concat "lib" "base") in
  let rec up dir =
    if Sys.file_exists (Filename.concat (marker dir) "ops.ml") then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent
  in
  up (Sys.getcwd ())

(* ---------- driver ---------- *)

let scan_checkout () =
  match find_root () with
  | Some root -> scan_sources ~root
  | None ->
    [ { severity = Error; code = "no-checkout";
        detail =
          Printf.sprintf
            "no source checkout (lib/base/ops.ml) at or above %s: the \
             determinism scan read no source; run lint from the repository"
            (Sys.getcwd ()) } ]

let run ?config ?(fixtures = false) () =
  let subjects =
    Subjects.registry () @ (if fixtures then Fixtures.subjects () else [])
  in
  let rows = List.map (check_subject ?config) subjects in
  let source_findings = scan_checkout () in
  let all =
    source_findings @ List.concat_map (fun r -> r.violations) rows
  in
  {
    rows;
    source_findings;
    errors = List.length (List.filter (fun v -> v.severity = Error) all);
    warnings = List.length (List.filter (fun v -> v.severity = Warning) all);
  }

let exit_code outcome = if outcome.errors > 0 then 1 else 0

(* ---------- rendering ---------- *)

let opt_int = function Some i -> string_of_int i | None -> "-"

let sr (s : Measures.sample) =
  Printf.sprintf "%d/%d" s.Measures.steps s.Measures.registers

let print outcome =
  let tab =
    Texttab.create
      ~header:
        [ "family"; "algorithm"; "cfg"; "static s/r"; "closed form";
          "measured"; "l decl/max"; "spin"; "liveness"; "races h/t";
          "issues" ]
  in
  List.iter
    (fun r ->
      let s = r.report.Analyze.subject in
      Texttab.add_row tab
        [
          Subjects.family_name s.Subjects.family;
          s.Subjects.alg_name;
          s.Subjects.config;
          sr r.report.Analyze.static_cf;
          Printf.sprintf "%s/%s"
            (opt_int s.Subjects.predicted_steps)
            (opt_int s.Subjects.predicted_registers);
          sr r.measured;
          Printf.sprintf "%s/%d"
            (opt_int s.Subjects.declared_atomicity)
            r.report.Analyze.max_width;
          Analyze.spin_class_name r.report.Analyze.spin_class;
          Product.liveness_name r.product.Product.liveness;
          Printf.sprintf "%d/%d"
            (List.length (Product.harmful r.product))
            (List.length r.product.Product.races);
          string_of_int (List.length r.violations);
        ])
    outcome.rows;
  Texttab.print tab;
  List.iter
    (fun r ->
      List.iter
        (fun v ->
          Printf.printf "%s[%s] %s %s: %s\n" (severity_name v.severity)
            v.code
            r.report.Analyze.subject.Subjects.alg_name
            r.report.Analyze.subject.Subjects.config v.detail)
        r.violations)
    outcome.rows;
  List.iter
    (fun v ->
      Printf.printf "%s[%s] %s\n" (severity_name v.severity) v.code v.detail)
    outcome.source_findings;
  Printf.printf "lint: %d subjects, %d errors, %d warnings\n"
    (List.length outcome.rows) outcome.errors outcome.warnings

(* The record's tables: one row per subject, one per register a
   subject's product pass classified, one per violation (source
   findings carry family "source"), and the report-wide counts.  A
   liveness or spin-class flip, harmful-race growth, a register that
   vanishes or changes semantics, and growth of a subject's or the
   report's error count fail the diff gate. *)
let to_record ~sweep outcome =
  let open Record in
  let subject r = r.report.Analyze.subject in
  let id r =
    let s = subject r in
    (Subjects.family_name s.Subjects.family, s.Subjects.alg_name,
     s.Subjects.config)
  in
  let id_columns get =
    [ col "family" Key (fun x -> let f, _, _ = get x in Str f);
      col "name" Key (fun x -> let _, n, _ = get x in Str n);
      col "config" Key (fun x -> let _, _, c = get x in Str c) ]
  in
  let opt = function Some i -> Int i | None -> Null in
  let sample prefix get =
    List.map
      (fun (name, f) -> col (prefix ^ name) Note (fun r -> Int (f (get r))))
      [ ("steps", fun s -> s.Measures.steps);
        ("registers", fun s -> s.Measures.registers);
        ("read_steps", fun s -> s.Measures.read_steps);
        ("write_steps", fun s -> s.Measures.write_steps);
        ("read_registers", fun s -> s.Measures.read_registers);
        ("write_registers", fun s -> s.Measures.write_registers) ]
  in
  let races r verdicts =
    Int
      (List.length
         (List.filter
            (fun (x : Product.race) -> List.mem x.Product.r_verdict verdicts)
            r.product.Product.races))
  in
  let errors vs =
    List.length (List.filter (fun v -> v.severity = Error) vs)
  in
  let subjects =
    id_columns id
    @ sample "static_" (fun r -> r.report.Analyze.static_cf)
    @ sample "measured_" (fun r -> r.measured)
    @ [ col "predicted_steps" Note (fun r ->
            opt (subject r).Subjects.predicted_steps);
        col "predicted_registers" Note (fun r ->
            opt (subject r).Subjects.predicted_registers);
        col "declared_atomicity" Note (fun r ->
            opt (subject r).Subjects.declared_atomicity);
        col "max_accessed_width" Note (fun r ->
            Int r.report.Analyze.max_width);
        col "spin_class" Exact (fun r ->
            Str (Analyze.spin_class_name r.report.Analyze.spin_class));
        col "graph_nodes" Note (fun r -> Int r.report.Analyze.nodes);
        col "graph_edges" Note (fun r -> Int r.report.Analyze.edges);
        col "liveness" Exact (fun r ->
            Str (Product.liveness_name r.product.Product.liveness));
        col "races_total" Note (fun r ->
            Int (List.length r.product.Product.races));
        col "races_harmful" No_growth (fun r -> races r [ Product.Harmful ]);
        col "races_sync" Note (fun r -> races r [ Product.Sync ]);
        col "races_benign" Note (fun r ->
            races r
              Product.
                [ Read_read; Same_value_write; Failed_cas; Protected ]);
        col "errors" No_growth (fun r -> Int (errors r.violations)) ]
  in
  let registers =
    id_columns fst
    @ [ col "register" Key (fun (_, g) -> Str g.Product.g_name);
        col "width" Note (fun (_, g) -> Int g.Product.g_width);
        col "semantics" Exact (fun (_, g) ->
            Str (Product.semantics_name g.Product.g_semantics)) ]
  in
  let violations =
    id_columns fst
    @ [ col "code" Key (fun (_, v) -> Str v.code);
        col "detail" Key (fun (_, v) -> Str v.detail);
        col "severity" Note (fun (_, v) -> Str (severity_name v.severity)) ]
  in
  let per_row f = List.concat_map (fun r -> List.map (fun x -> (id r, x)) (f r)) in
  let source = ("source", "", "") in
  {
    bench = "lint";
    sweep;
    tables =
      [ table "subjects" subjects outcome.rows;
        table "registers" registers
          (per_row (fun r -> r.product.Product.registers) outcome.rows);
        table "violations" violations
          (List.map (fun v -> (source, v)) outcome.source_findings
          @ per_row (fun r -> r.violations) outcome.rows);
        table "summary"
          [ col "errors" No_growth (fun o -> Int o.errors);
            col "warnings" Note (fun o -> Int o.warnings) ]
          [ outcome ] ];
  }
