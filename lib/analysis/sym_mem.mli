(** The symbolic backend: a third implementation of
    {!Cfc_base.Mem_intf.MEM} that executes an algorithm {e solo} and
    records every shared access, while letting a driver {e inject}
    adversarial register contents at chosen access indices — the
    "unconstrained read" forks of the static analyzer.

    State is held in an ordinary {!Cfc_runtime.Memory.t} arena and all
    semantic checks (widths, §3.1 operation models) are the runtime's
    own ({!Cfc_runtime.Register}), so the symbolic backend can never
    drift from the simulator's semantics.  Unlike {!Cfc_runtime.Sim_mem}
    no effects are performed: the algorithm runs in the analyzer's own
    stack, which is what makes bounded exhaustive forking cheap
    (thousands of re-executions per algorithm).

    An injection [(i, v)] means: immediately before the [i]-th recorded
    access, set the accessed register to [v] (as if a remote process had
    just written it); the access then executes concretely.  Re-running
    the same deterministic code with a prefix-compatible plan reaches
    the same indices, which is what makes plans replayable. *)

open Cfc_runtime

(** Classification tag of one recorded access. *)
type op =
  | O_read
  | O_write
  | O_field of int * int  (** index, field width *)
  | O_xchg
  | O_cas of bool  (** success *)
  | O_bit of Cfc_base.Ops.t

type step = {
  s_index : int;  (** position among the recorded accesses, from 0 *)
  s_reg : Register.t;
  s_op : op;
  s_value : int;
      (** observed pre-value for value-returning ops; written value for
          plain writes *)
  s_post : int;
      (** the register's content immediately after the access — what a
          writing access actually stored (equals [s_value] for pure
          reads and failed CAS) *)
  s_write : bool;  (** same convention as {!Cfc_runtime.Event.is_write} *)
  s_injected : bool;
}

val op_class : op -> string
(** Coarse label used for graph-node identity and cross-backend
    comparison ([O_cas true] and [O_cas false] share ["cas"]). *)

val step_sig : step -> int * string
(** [(register id, op class)] — the shape compared against the simulated
    backend's trace by the equivalence property. *)

type cut_reason =
  | Budget  (** the per-path step budget was exhausted *)
  | Spin  (** a busy-wait cycle was detected (see {!ctx} below) *)

exception Cut of cut_reason
(** Raised out of an access to end the current path.  Algorithms never
    catch it. *)

type ctx

val create :
  ?max_steps:int ->
  ?max_period:int ->
  ?plan:(int * int) list ->
  unit ->
  ctx
(** A fresh symbolic context.  [plan] is the injection list (strictly
    increasing indices).  [max_steps] (default 2000) bounds the path;
    [max_period] (default 8) bounds the busy-wait patterns recognized:
    a cycle is declared when the last [3p] recorded accesses are three
    identical repetitions of a length-[p] pattern of
    (register, op, value). *)

val mem : ctx -> Cfc_base.Mem_intf.mem
(** The MEM instance backed by [ctx].  Accesses are recorded (and
    injections applied) only between {!start_recording} and the end of
    the run; before that, accesses execute concretely without being
    counted — used for the sequential-context prefix of the naming
    measure. *)

val arena : ctx -> Memory.t
val start_recording : ctx -> unit

val steps : ctx -> step list
(** Recorded accesses, in execution order. *)

val spin_cycle : ctx -> step list option
(** One period of the detected busy-wait cycle, oldest first;
    [Some _] iff the path ended with [Cut Spin]. *)

val alternatives : ctx -> (int * int) list
(** Fork opportunities discovered along this path: [(i, v)] such that
    injecting pre-value [v] at access [i] could change the execution
    (only value-returning accesses generate alternatives, and [v] ranges
    over {!candidate_values} minus the observed pre-value). *)

val candidate_values : width:int -> int list
(** The adversarial value pool for a register of the given width: all
    values for widths up to {!exhaustive_width_limit} bits, else the
    corners [0; 1; 2; 2{^width}-1]. *)

val exhaustive_width_limit : int
