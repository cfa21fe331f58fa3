(** Dynamic conflict collection for {!Explore}'s [observe_access] hook.

    A collector accumulates the set of distinct (pid, register, op
    class) shared accesses an exploration executes, and projects it to
    the cross-process conflicting pairs — same register, at least one
    writing side — the search actually exercised.  This is the dynamic
    ground truth the static race enumeration
    ([Cfc_analysis.Product.races]) is tested against: every pair
    reported here must be matched by [Product.has_pair]. *)

type t

val create : unit -> t

val observer :
  t ->
  pid:int ->
  reg:Cfc_runtime.Register.t ->
  kind:Cfc_runtime.Event.access_kind ->
  unit
(** Pass [observer t] as [observe_access].  Deduplicating, so wiring it
    into a multi-node search is cheap: one hash probe per access. *)

type access = {
  pid : int;
  rid : int;      (** register id within the checked arena *)
  reg : string;   (** register name, as allocated by the algorithm *)
  cls : string;   (** op class per {!Cfc_analysis.Analyze.op_class} *)
  is_write : bool;
      (** per {!Cfc_runtime.Event.is_write} — a CAS counts as a write
          whether or not it succeeded on any particular execution *)
}

val accesses : t -> access list
(** Every distinct triple observed, sorted (pid, register, class). *)

type pair = {
  rid : int;
  reg : string;
  pid_a : int;
  cls_a : string;
  pid_b : int;
  cls_b : string;
}

val pairs : t -> pair list
(** Unordered cross-process conflict pairs ([pid_a < pid_b], each pair
    once, sorted): same register, distinct pids, at least one side a
    write. *)
