(* Tests for cfc_base: the integer math every bound formula relies on,
   the operation/model algebra of §3.1-3.2, and the table renderer. *)

open Cfc_base

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_pow2 () =
  check "2^0" 1 (Ixmath.pow2 0);
  check "2^10" 1024 (Ixmath.pow2 10);
  check_bool "is_pow2 1" true (Ixmath.is_pow2 1);
  check_bool "is_pow2 1024" true (Ixmath.is_pow2 1024);
  check_bool "is_pow2 0" false (Ixmath.is_pow2 0);
  check_bool "is_pow2 1023" false (Ixmath.is_pow2 1023)

let test_logs () =
  check "floor_log2 1" 0 (Ixmath.floor_log2 1);
  check "floor_log2 7" 2 (Ixmath.floor_log2 7);
  check "floor_log2 8" 3 (Ixmath.floor_log2 8);
  check "ceil_log2 1" 0 (Ixmath.ceil_log2 1);
  check "ceil_log2 7" 3 (Ixmath.ceil_log2 7);
  check "ceil_log2 8" 3 (Ixmath.ceil_log2 8);
  check "ceil_log2 9" 4 (Ixmath.ceil_log2 9)

let test_bits_needed () =
  check "bits 0" 1 (Ixmath.bits_needed 0);
  check "bits 1" 1 (Ixmath.bits_needed 1);
  check "bits 2" 2 (Ixmath.bits_needed 2);
  check "bits 7" 3 (Ixmath.bits_needed 7);
  check "bits 8" 4 (Ixmath.bits_needed 8)

let test_ceil_div_log () =
  check "ceil_div 7 3" 3 (Ixmath.ceil_div 7 3);
  check "ceil_div 6 3" 2 (Ixmath.ceil_div 6 3);
  check "ceil_div 0 3" 0 (Ixmath.ceil_div 0 3);
  check "ceil_log 3 1" 1 (Ixmath.ceil_log ~base:3 1);
  check "ceil_log 3 3" 1 (Ixmath.ceil_log ~base:3 3);
  check "ceil_log 3 4" 2 (Ixmath.ceil_log ~base:3 4);
  check "ceil_log 3 9" 2 (Ixmath.ceil_log ~base:3 9);
  check "ceil_log 3 10" 3 (Ixmath.ceil_log ~base:3 10);
  check "ipow" 243 (Ixmath.ipow 3 5)

let prop_ceil_log_is_least =
  QCheck.Test.make ~count:500 ~name:"ceil_log returns the least valid depth"
    QCheck.(pair (int_range 2 10) (int_range 1 100_000))
    (fun (base, n) ->
      let d = Ixmath.ceil_log ~base n in
      Ixmath.ipow base d >= n && (d = 1 || Ixmath.ipow base (d - 1) < n))

let prop_bits_roundtrip =
  QCheck.Test.make ~count:500 ~name:"bits_needed stores the value"
    QCheck.(int_range 0 1_000_000)
    (fun v ->
      let w = Ixmath.bits_needed v in
      v < Ixmath.pow2 w && (w = 1 || v >= Ixmath.pow2 (w - 1)))

(* Hardening near max_int: the log-domain helpers must stay exact where
   naive power-growing loops would wrap, and ipow must raise rather than
   silently overflow. *)
let test_ixmath_extremes () =
  check "floor_log2 max_int" 61 (Ixmath.floor_log2 max_int);
  check "ceil_log2 max_int" 62 (Ixmath.ceil_log2 max_int);
  check "floor_log2 2^61" 61 (Ixmath.floor_log2 (Ixmath.pow2 61));
  check "bits_needed max_int" 62 (Ixmath.bits_needed max_int);
  check "ceil_div max_int 1" max_int (Ixmath.ceil_div max_int 1);
  check "ceil_div max_int max_int" 1 (Ixmath.ceil_div max_int max_int);
  check "ceil_log 2 max_int" 62 (Ixmath.ceil_log ~base:2 max_int);
  check "ipow 2 61" (Ixmath.pow2 61) (Ixmath.ipow 2 61);
  let raises f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  check_bool "ipow 2 62 raises" true (raises (fun () -> Ixmath.ipow 2 62));
  check_bool "ipow 3 40 raises" true (raises (fun () -> Ixmath.ipow 3 40));
  check_bool "ipow 10 19 raises" true (raises (fun () -> Ixmath.ipow 10 19));
  check "ipow 0 0" 1 (Ixmath.ipow 0 0);
  check "ipow 0 5" 0 (Ixmath.ipow 0 5);
  check "ipow 1 max" 1 (Ixmath.ipow 1 1_000_000);
  check_bool "floor_log2 0 raises" true (raises (fun () -> Ixmath.floor_log2 0));
  check_bool "ceil_div by 0 raises" true (raises (fun () -> Ixmath.ceil_div 1 0));
  check_bool "ceil_div neg raises" true (raises (fun () -> Ixmath.ceil_div (-1) 2));
  check_bool "ceil_log base 1 raises" true
    (raises (fun () -> Ixmath.ceil_log ~base:1 5));
  check_bool "bits_needed neg raises" true
    (raises (fun () -> Ixmath.bits_needed (-1)))

(* A reference pow that saturates instead of wrapping lets the properties
   run right up against max_int. *)
let sat_pow b e =
  let rec go acc e =
    if e = 0 then acc
    else if acc > max_int / b then max_int
    else go (acc * b) (e - 1)
  in
  go 1 e

let prop_floor_log2_near_max =
  QCheck.Test.make ~count:500 ~name:"floor_log2 exact near max_int"
    QCheck.(int_range 0 2000)
    (fun d ->
      let n = max_int - d in
      let k = Ixmath.floor_log2 n in
      let above = sat_pow 2 (k + 1) in
      (* A saturated power stands for a value beyond max_int >= n. *)
      sat_pow 2 k <= n && (above > n || above = max_int))

let prop_ceil_div_near_max =
  QCheck.Test.make ~count:500 ~name:"ceil_div characterization near max_int"
    QCheck.(pair (int_range 0 5000) (int_range 1 1_000_000))
    (fun (d, b) ->
      let a = max_int - d in
      let q = Ixmath.ceil_div a b in
      (* q is the least integer with q*b >= a (stated division-side to
         avoid overflowing the test itself). *)
      q >= a / b
      && q - (a / b) <= 1
      && (a mod b = 0) = (q = a / b))

let prop_ceil_log_near_max =
  QCheck.Test.make ~count:500 ~name:"ceil_log least depth near max_int"
    QCheck.(pair (int_range 2 16) (int_range 0 5000))
    (fun (base, d) ->
      let n = max_int - d in
      let depth = Ixmath.ceil_log ~base n in
      sat_pow base depth >= n && (depth = 1 || sat_pow base (depth - 1) < n))

let prop_ipow_raises_or_exact =
  QCheck.Test.make ~count:1000 ~name:"ipow never wraps: exact or raises"
    QCheck.(pair (int_range 2 1000) (int_range 0 70))
    (fun (b, e) ->
      match Ixmath.ipow b e with
      | v -> sat_pow b e = v && v < max_int
      | exception Invalid_argument _ -> sat_pow b e = max_int)

let prop_geometric_mean =
  QCheck.Test.make ~count:20 ~name:"geometric inversion has the right mean"
    QCheck.(int_range 1 50)
    (fun mean ->
      let st = Random.State.make [| 7; mean |] in
      let n = 20_000 in
      let sum = ref 0 in
      for _ = 1 to n do
        sum :=
          !sum + Ixmath.geometric ~u:(Random.State.float st 1.0) ~mean
      done;
      let emp = float_of_int !sum /. float_of_int n in
      Float.abs (emp -. float_of_int mean) < 0.1 *. float_of_int mean +. 0.5)

(* The success probability is computed in float space: an int [mean + 1]
   would wrap at [mean = max_int] and yield a negative variate. *)
let test_geometric_extreme_mean () =
  List.iter
    (fun mean ->
      List.iter
        (fun u ->
          let v = Ixmath.geometric ~u ~mean in
          Alcotest.(check bool)
            (Printf.sprintf "geometric mean=%d u=%f nonnegative" mean u)
            true (v >= 0))
        [ 0.0; 0.5; 0.999_999 ])
    [ 1; max_int / 2; max_int - 1; max_int ]

(* mix_seed: deterministic, nonnegative, and a full-avalanche spread —
   nearby (root, pid) pairs must not produce nearby or colliding seeds
   (the scale rig derives one independent stream per process from it). *)
let test_mix_seed () =
  Alcotest.(check int)
    "deterministic" (Ixmath.mix_seed 42 7) (Ixmath.mix_seed 42 7);
  let seen = Hashtbl.create 4096 in
  for root = 0 to 7 do
    for pid = 0 to 511 do
      let s = Ixmath.mix_seed root pid in
      Alcotest.(check bool) "nonnegative" true (s >= 0);
      (match Hashtbl.find_opt seen s with
      | Some (root', pid') ->
        Alcotest.failf "collision: (%d,%d) and (%d,%d) -> %d" root pid root'
          pid' s
      | None -> ());
      Hashtbl.add seen s (root, pid)
    done
  done;
  (* Adjacent pids flip roughly half the bits, not just the low ones. *)
  let popcount x =
    let rec go acc x = if x = 0 then acc else go (acc + (x land 1)) (x lsr 1) in
    go 0 x
  in
  let d = popcount (Ixmath.mix_seed 42 0 lxor Ixmath.mix_seed 42 1) in
  Alcotest.(check bool)
    (Printf.sprintf "avalanche: %d bits differ" d)
    true
    (d > 15 && d < 50)

let test_zipf_edges () =
  (match Ixmath.zipf ~n:0 ~theta:1.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "n=0 accepted");
  (match Ixmath.zipf ~n:4 ~theta:(-0.5) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative theta accepted");
  (match Ixmath.zipf ~n:4 ~theta:Float.nan with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "nan theta accepted");
  let z = Ixmath.zipf ~n:1 ~theta:0.99 in
  Alcotest.(check int) "n=1 always rank 0" 0 (Ixmath.zipf_draw z ~u:0.7);
  Alcotest.(check (float 0.)) "n=1 cdf" 1.0 (Ixmath.zipf_cdf z 0);
  (match Ixmath.zipf_draw z ~u:1.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "u=1 accepted");
  (match Ixmath.zipf_cdf z 1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "rank out of range accepted")

(* The CDF is exactly the normalized partial sums of k^-theta, monotone,
   ending at 1; a draw inverts it: cdf(k-1) <= u < cdf(k). *)
let prop_zipf_cdf =
  QCheck.Test.make ~count:200 ~name:"zipf cdf = normalized partial sums"
    QCheck.(pair (int_range 1 200) (int_range 0 3))
    (fun (n, ti) ->
      let theta = [| 0.0; 0.6; 0.99; 2.5 |].(ti) in
      let z = Ixmath.zipf ~n ~theta in
      let total = ref 0. in
      for k = 1 to n do
        total := !total +. (float_of_int k ** -.theta)
      done;
      let acc = ref 0. and ok = ref true in
      for k = 0 to n - 1 do
        acc := !acc +. (float_of_int (k + 1) ** -.theta);
        let expect = !acc /. !total in
        if Float.abs (Ixmath.zipf_cdf z k -. expect) > 1e-9 then ok := false;
        if k > 0 && Ixmath.zipf_cdf z k < Ixmath.zipf_cdf z (k - 1) then
          ok := false
      done;
      !ok && Ixmath.zipf_cdf z (n - 1) = 1.0)

let prop_zipf_draw_inverts =
  QCheck.Test.make ~count:500 ~name:"zipf draw inverts the cdf"
    QCheck.(triple (int_range 1 100) (int_range 0 2) (float_bound_exclusive 1.0))
    (fun (n, ti, u) ->
      let u = Float.abs u in
      QCheck.assume (u < 1.0);
      let theta = [| 0.0; 0.99; 1.8 |].(ti) in
      let z = Ixmath.zipf ~n ~theta in
      let k = Ixmath.zipf_draw z ~u in
      0 <= k && k < n
      && u < Ixmath.zipf_cdf z k
      && (k = 0 || Ixmath.zipf_cdf z (k - 1) <= u))

(* Empirical rank frequencies against the CDF masses: rank 0 of a
   theta=0.99 space is drawn with its closed-form probability, and
   theta=0 is uniform.  Seeded draws, so the check is deterministic. *)
let prop_zipf_empirical =
  QCheck.Test.make ~count:10 ~name:"zipf empirical rank frequency matches cdf"
    QCheck.(pair (int_range 2 64) (int_range 0 2))
    (fun (n, ti) ->
      let theta = [| 0.0; 0.6; 0.99 |].(ti) in
      let z = Ixmath.zipf ~n ~theta in
      let st = Random.State.make [| Ixmath.mix_seed 7 (n + ti) |] in
      let rounds = 40_000 in
      let counts = Array.make n 0 in
      for _ = 1 to rounds do
        let k = Ixmath.zipf_draw z ~u:(Random.State.float st 1.0) in
        counts.(k) <- counts.(k) + 1
      done;
      let mass k =
        Ixmath.zipf_cdf z k -. (if k = 0 then 0. else Ixmath.zipf_cdf z (k - 1))
      in
      (* 4-sigma binomial envelope per rank, plus an absolute floor for
         tiny masses. *)
      let ok = ref true in
      for k = 0 to n - 1 do
        let p = mass k in
        let emp = float_of_int counts.(k) /. float_of_int rounds in
        let sigma = sqrt (p *. (1. -. p) /. float_of_int rounds) in
        if Float.abs (emp -. p) > (4. *. sigma) +. 1e-3 then ok := false
      done;
      !ok)

let test_ops_strings () =
  List.iter
    (fun op ->
      Alcotest.(check (option string))
        (Ops.to_string op ^ " roundtrip")
        (Some (Ops.to_string op))
        (Option.map Ops.to_string (Ops.of_string (Ops.to_string op))))
    Ops.all;
  check_bool "bad name" true (Ops.of_string "nonsense" = None);
  check "eight ops" 8 (List.length Ops.all);
  Alcotest.(check (list int))
    "indices are 0..7" (List.init 8 Fun.id)
    (List.map Ops.to_index Ops.all)

let test_model_algebra () =
  check_bool "subset" true (Model.subset Model.tas_read Model.tas_tar_read);
  check_bool "not subset" false (Model.subset Model.tas_tar_read Model.tas_read);
  check_bool "rmw self-dual" true (Model.is_self_dual Model.rmw);
  check_bool "taf self-dual" true (Model.is_self_dual Model.taf);
  check_bool "read/write self-dual" true (Model.is_self_dual Model.read_write);
  check_bool "tas not self-dual" false (Model.is_self_dual Model.tas_only);
  check "rmw cardinal" 8 (Model.cardinal Model.rmw);
  check "union" 3 (Model.cardinal (Model.union Model.tas_read Model.taf));
  check_bool "named tas" true (Model.to_string Model.tas_only = "tas")

let prop_dual_involution_model =
  QCheck.Test.make ~count:256 ~name:"model dual is an involution"
    QCheck.(int_bound 255)
    (fun mask ->
      let m =
        List.filteri (fun i _ -> mask land (1 lsl i) <> 0) Ops.all
        |> Model.of_list
      in
      Model.equal m (Model.dual (Model.dual m)))

let test_texttab () =
  let t = Texttab.create ~header:[ "a"; "bb" ] in
  Texttab.add_row t [ "1"; "2" ];
  Texttab.add_sep t;
  Texttab.add_row t [ "333" ];
  let s = Texttab.render t in
  check_bool "has header" true
    (String.length s > 0 && String.contains s 'b');
  (* Padded short row and separator line both render. *)
  (* top sep, header, sep, row, explicit sep, padded row, bottom sep *)
  check "lines" 7
    (String.split_on_char '\n' s |> List.filter (( <> ) "") |> List.length);
  (match Texttab.add_row t [ "1"; "2"; "3" ] with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "overlong row accepted")

(* ------------------------------------------------------------------ *)
(* Run records                                                         *)
(* ------------------------------------------------------------------ *)

let contains_sub haystack sub =
  let len = String.length sub in
  let rec scan i =
    i + len <= String.length haystack
    && (String.sub haystack i len = sub || scan (i + 1))
  in
  scan 0

(* Regression: every string a record carries must be escaped.  Lint
   violation details carry source lines and rendered access paths, so
   quotes, backslashes and control characters all occur in practice,
   and a bench name may carry UTF-8 (which must pass through, not come
   out as OCaml's decimal escapes) or a stray non-UTF-8 byte. *)
let test_record_escaping () =
  let row = ("caf\xc3\xa9+bell\x07 stray\xff", 0.99, 0.0761719) in
  let json =
    Record.(
      to_json
        { bench = "test"; sweep = "tricky \"quoted\" back\\slash\nnewline\ttab";
          tables =
            [ table "entries"
                [ col "name" Key (fun (n, _, _) -> Str n);
                  fcol ~decimals:2 "theta" Key (fun (_, t, _) -> Float t);
                  fcol ~decimals:6 "hot_share" Note (fun (_, _, h) -> Float h);
                  col "wall_s" Wall (fun _ -> Float Float.nan) ]
                [ row ] ] })
  in
  check_bool "quote escaped" true (contains_sub json "tricky \\\"quoted\\\"");
  check_bool "backslash escaped" true (contains_sub json "back\\\\slash");
  check_bool "newline escaped" true (contains_sub json "\\nnewline");
  check_bool "tab escaped" true (contains_sub json "\\u0009tab");
  check_bool "no raw newline inside the string" true
    (not (contains_sub json "\nnewline"));
  check_bool "UTF-8 passes through" true (contains_sub json "caf\xc3\xa9+");
  check_bool "control byte escaped" true (contains_sub json "+bell\\u0007 ");
  check_bool "stray byte escaped" true (contains_sub json "stray\\u00ff\"");
  check_bool "declared precision" true
    (contains_sub json "\"theta\": 0.99, \"hot_share\": 0.076172");
  check_bool "non-finite float is null" true
    (contains_sub json "\"wall_s\": null}");
  check_bool "columns carry their policy" true
    (contains_sub json
       "\"columns\": {\"name\": \"key\", \"theta\": \"key\", \
        \"hot_share\": \"note\", \"wall_s\": \"wall\"}")

let () =
  Alcotest.run "cfc_base"
    [ ( "ixmath",
        [ Alcotest.test_case "pow2" `Quick test_pow2;
          Alcotest.test_case "logs" `Quick test_logs;
          Alcotest.test_case "bits_needed" `Quick test_bits_needed;
          Alcotest.test_case "ceil_div/log" `Quick test_ceil_div_log;
          QCheck_alcotest.to_alcotest prop_ceil_log_is_least;
          QCheck_alcotest.to_alcotest prop_bits_roundtrip;
          Alcotest.test_case "extremes near max_int" `Quick
            test_ixmath_extremes;
          QCheck_alcotest.to_alcotest prop_floor_log2_near_max;
          QCheck_alcotest.to_alcotest prop_ceil_div_near_max;
          QCheck_alcotest.to_alcotest prop_ceil_log_near_max;
          QCheck_alcotest.to_alcotest prop_ipow_raises_or_exact;
          QCheck_alcotest.to_alcotest prop_geometric_mean;
          Alcotest.test_case "geometric extreme means stay nonnegative"
            `Quick test_geometric_extreme_mean;
          Alcotest.test_case "mix_seed determinism + avalanche" `Quick
            test_mix_seed;
          Alcotest.test_case "zipf edge cases" `Quick test_zipf_edges;
          QCheck_alcotest.to_alcotest prop_zipf_cdf;
          QCheck_alcotest.to_alcotest prop_zipf_draw_inverts;
          QCheck_alcotest.to_alcotest prop_zipf_empirical ] );
      ( "ops+models",
        [ Alcotest.test_case "ops strings" `Quick test_ops_strings;
          Alcotest.test_case "model algebra" `Quick test_model_algebra;
          QCheck_alcotest.to_alcotest prop_dual_involution_model ] );
      ("texttab", [ Alcotest.test_case "render" `Quick test_texttab ]);
      ( "record",
        [ Alcotest.test_case "json strings escaped" `Quick
            test_record_escaping ] ) ]
