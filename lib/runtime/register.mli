(** A shared register cell: the atomic unit of the paper's model.

    A register has a width in bits (the paper's atomicity parameter [l] is
    the maximum width accessed by an algorithm in one step) and, for
    single-bit registers used by the naming problem, an optional
    {!Cfc_base.Model.t} restricting which of the eight operations are
    supported.  Semantic operations here mutate the cell directly; the
    simulator invokes them from the scheduler so that every access is a
    single atomic step of the interleaving. *)

type home = ..
(** What a register knows of the arena that allocated it.  {!Memory}
    extends it with its arena's cursor, which is how {!Scheduler} finds
    where to grant a run-ahead from the register a step accessed. *)

type home += Unhomed  (** the home of a register made by {!make} *)

type t = private {
  id : int;          (** unique within the owning {!Memory.t} arena *)
  name : string;     (** for traces and error messages *)
  width : int;       (** size in bits, 1..62 *)
  model : Cfc_base.Model.t option;
      (** [Some m]: a §3.1 bit register supporting exactly the ops of [m];
          [None]: a plain atomic read/write register *)
  init : int;        (** initial value *)
  mutable value : int;
  home : home;
}

val make :
  id:int -> name:string -> width:int -> model:Cfc_base.Model.t option ->
  init:int -> t
(** Raises [Invalid_argument] on a bad width, an init that does not fit,
    or a model given for a register wider than one bit.  The register is
    [Unhomed]. *)

val make_in :
  home:home -> id:int -> name:string -> width:int ->
  model:Cfc_base.Model.t option -> init:int -> t
(** {!make} for an arena: the register records [home]. *)

val read : t -> int
(** Semantic read.  Raises [Invalid_argument] if the register's model does
    not include [read]. *)

val write : t -> int -> unit
(** Semantic write.  Raises [Invalid_argument] if the value does not fit or
    the model does not include the corresponding write operation. *)

val write_field : t -> index:int -> width:int -> int -> unit
(** Multi-grain sub-word store (see {!Cfc_base.Mem_intf.MEM.write_field}).
    Raises [Invalid_argument] on model-restricted bits, out-of-range
    fields, or oversized values. *)

val bit_op : t -> Cfc_base.Ops.t -> int option
(** Apply a single-bit operation; returns the old value when the operation
    returns one.  Raises [Invalid_argument] on non-bit registers or
    operations outside the model. *)

val fetch_and_store : t -> int -> int
(** Atomic exchange; returns the old value.  Model-unrestricted registers
    only. *)

val compare_and_set : t -> expected:int -> int -> bool
(** Atomic compare-and-swap; true iff the swap happened. *)

val reset : t -> unit
(** Restore the initial value (used between replays). *)

val restore : t -> int -> unit
(** [restore r v] sets the cell back to a previously observed value,
    bypassing model/width checks (the value was legal when captured).
    Used by the model checker's checkpoint/undo machinery; not a semantic
    operation — never call it from algorithm code. *)

val pp : Format.formatter -> t -> unit
