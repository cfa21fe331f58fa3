(* Linked ahead of the cfc libraries, so this clock read happens before
   their module initialisers run: the benchmark's set-up time counts from
   here. *)
let ns = Int64.to_int (Monotonic_clock.now ()) (* lint-allow: wall-clock — benchmark timer *)
