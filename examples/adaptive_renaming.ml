(* Adaptive one-shot renaming with the Moir-Anderson splitter grid: the
   contention-sensitive companion to the paper's theme.  A process that
   runs without contention pays exactly one splitter (4 steps, 2
   registers) and gets name 1; with k participants every name fits in
   1..k(k+1)/2 no matter how large the original id space was.

     dune exec examples/adaptive_renaming.exe *)

open Cfc_renaming
open Cfc_core

let () =
  let n = 12 in

  (* Contention-free: the definitional O(1) path. *)
  let cf = Renaming_harness.contention_free Registry.ma_grid ~n in
  Format.printf
    "solo process (any of %d ids): %a, name %d@." n Measures.pp_sample
    cf.Renaming_harness.max
    cf.Renaming_harness.names.(0);

  (* Dial the participation level and watch the name space adapt. *)
  Format.printf "@.%-14s %-22s %-10s@." "participants" "names handed out"
    "k(k+1)/2";
  List.iter
    (fun k ->
      let participants = List.init k (fun i -> i) in
      let out =
        Renaming_harness.run ~participants
          ~pick:(Cfc_runtime.Schedule.random ~seed:2026)
          Registry.ma_grid ~n
      in
      let names =
        Measures.decisions out.Cfc_runtime.Runner.trace ~nprocs:n
        |> List.map snd |> List.sort compare
      in
      Format.printf "%-14d %-22s %-10d@." k
        (String.concat "," (List.map string_of_int names))
        (Ma_grid.name_space ~n ~k))
    [ 1; 2; 4; 8; 12 ];

  (* Crashes do not block survivors (wait-freedom). *)
  let out =
    Renaming_harness.run
      ~crash_at:[ (3, 0); (7, 5) ]
      ~pick:(Cfc_runtime.Schedule.random ~seed:7)
      Registry.ma_grid ~n
  in
  let survivors =
    Measures.decisions out.Cfc_runtime.Runner.trace ~nprocs:n
  in
  Format.printf
    "@.with 2 crashes: %d of %d processes renamed, uniqueness %s@."
    (List.length survivors) n
    (match
       Spec.unique_names out.Cfc_runtime.Runner.trace ~nprocs:n
         ~n:(Ma_grid.name_space ~n ~k:n)
     with
    | None -> "ok"
    | Some v -> Format.asprintf "VIOLATED (%a)" Spec.pp_violation v)
