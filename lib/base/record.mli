(** One run record: the machine-readable output of every bench
    ([BENCH_*.json]) and of [cfc-tables lint --json] / [scale --json].

    A record names its bench, the [sweep] it ran (the set of rows the
    run covers: two runs with the same sweep must produce the same row
    keys) and a list of named tables.  Every table column declares how
    [scripts/bench_diff.py] compares it against a committed baseline, so
    the comparator is one generic loop and a writer states its gates
    where it states its columns.  This module is the only JSON writer
    for those files: it owns the string escaping and each float
    column's printed precision. *)

type policy =
  | Key  (** part of the row's identity *)
  | Exact  (** any change fails *)
  | No_growth  (** an increase fails (for booleans: false -> true) *)
  | No_drop  (** a decrease fails (for booleans: true -> false) *)
  | Note  (** a change is reported, never failed *)
  | Wall  (** wall-clock or host-dependent: never compared *)
  | Collapse
      (** fails only when the value falls below 1/1000 of a positive
          baseline (a livelock, not a noisy neighbour) *)

type value = Int of int | Float of float | Str of string | Bool of bool | Null

type 'r column

val col : string -> policy -> ('r -> value) -> 'r column
(** A column named [name] whose cell for row [r] is [get r].  [Float]
    cells print with no decimals. *)

val fcol : decimals:int -> string -> policy -> ('r -> value) -> 'r column
(** Like {!col}, with [Float] cells printed to [decimals] places.
    Non-finite floats print as [null]. *)

type table

val table : string -> 'r column list -> 'r list -> table

type t = { bench : string; sweep : string; tables : table list }

val to_json : t -> string
(** Tagged with schema ["cfc-record/1"], one row per line.  Strings
    are written as UTF-8; quotes, backslashes and control characters
    are escaped, and a byte that is not part of valid UTF-8 is written
    as its [\u00XX] code point, so the output is always valid JSON. *)

val write : string -> t -> unit
(** [write path r] writes [to_json r] to [path] ('-' for stdout). *)
