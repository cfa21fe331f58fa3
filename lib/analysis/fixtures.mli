(** Deliberately defective algorithms — the negative tests of the
    static analyzer and the model checker.  They are never registered
    in {!Cfc_mutex.Registry}; only the tests and the
    [cfc-tables lint --fixtures] gate see them. *)

val wide_spin : Cfc_mutex.Registry.alg
(** A test-and-set-style lock whose declared [atomicity] is 1 while its
    spin register is 3 bits wide — the atomicity-conformance pass must
    report the width excess.  Its closed forms are correct, so it
    produces exactly one violation. *)

val swallows : Cfc_mutex.Registry.alg
(** A lock that performs an out-of-width write under [try ... with
    Invalid_argument _ -> ()] and keeps going.  The failed write leaves
    no event in the trace, so rebuilding the process after an undo must
    raise it again from the scheduler's failure log; the model checker's
    tests check that it does.  The lint gate has nothing to flag on
    it. *)

val subjects : unit -> Subjects.t list
(** The fixtures packaged as analysis subjects (n = 2). *)
