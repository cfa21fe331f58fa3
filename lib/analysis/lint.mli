(** The lint gate: run the {!Analyze} passes over a battery of subjects,
    check every closed form, the trace-measured agreement and atomicity
    conformance, scan the library sources for
    non-deterministic randomness, and render the outcome as a table or a
    run record.  [cfc-tables lint] is a thin wrapper; CI fails the
    build on any error-severity finding. *)

type severity = Error | Warning

type violation = { severity : severity; code : string; detail : string }
(** [code] is a stable machine-readable tag: ["cf-steps"],
    ["cf-registers"], ["static-vs-measured"], ["atomicity"],
    ["harmful-race"], ["liveness"],
    ["nondeterminism"], ["wall-clock"], ["no-checkout"]. *)

type row = {
  report : Analyze.report;
  product : Product.t;  (** the pairwise product passes over [report] *)
  measured : Cfc_core.Measures.sample;
  violations : violation list;
}

type outcome = {
  rows : row list;
  source_findings : violation list;  (** determinism scan of [lib/] *)
  errors : int;
  warnings : int;
}

val check_subject : ?config:Analyze.config -> Subjects.t -> row

val scan_sources : root:string -> violation list
(** Scan every [.ml]/[.mli] under [root]'s [lib], [bench], [bin] and
    [examples] for determinism violations: uses of the global [Random]
    module (anything but the seeded [State] sub-module), the
    environment-seeded [make_self_init], and wall-clock reads (the Unix
    [gettimeofday] and the Sys process timer) on lines not carrying the
    benchmark-timer allow marker. *)

val find_root : unit -> string option
(** Walk up from the current directory to the first directory containing
    [lib/base/ops.ml] (works both from a dune sandbox and from a source
    checkout). *)

val scan_checkout : unit -> violation list
(** {!scan_sources} of the checkout {!find_root} finds.  Outside a
    checkout there is nothing to scan, and the result is one
    error-severity ["no-checkout"] finding naming the current
    directory, so a gate run from the wrong place fails. *)

val run : ?config:Analyze.config -> ?fixtures:bool -> unit -> outcome
(** Analyze the whole {!Subjects.registry} (plus the broken
    {!Fixtures} when [fixtures] is set) and {!scan_checkout}. *)

val print : outcome -> unit
(** Human-readable table plus one line per violation. *)

val to_record : sweep:string -> outcome -> Cfc_base.Record.t
(** The lint report as a run record (bench ["lint"]); [sweep] names the
    subject battery the run covered. *)

val exit_code : outcome -> int
(** 0 when no error-severity finding, 1 otherwise (warnings alone do not
    fail the gate). *)
