(** The one KV client body: a bucketed store whose every bucket is
    guarded by its own instance of one registry lock, and the client
    that runs {!Ycsb} operations against it.  The event-wheel {!Kv_sim}
    and the domain-parallel [Cfc_native.Kv_service] both run it; each
    keeps only its rig ({!Cfc_core.Client.rig}), its value store and its
    result record.

    Key [k] lives in bucket [k mod buckets], slot [k / buckets], so Zipf
    head ranks spread across buckets with geometrically decreasing
    weight.  A scan reads consecutive slots of its bucket (wrapping), so
    it holds exactly one lock; cross-bucket scans would need multi-lock
    ordering the paper's model says nothing about (DESIGN.md §2).

    Two safety witnesses ride along inside the critical sections: a
    per-bucket version register bumped by a {e non-atomic}
    read-then-write per mutating operation (a shortfall of the final
    count is a lost update), and a version re-read around every scan (a
    mid-scan change is a torn snapshot).  Both stay clean iff every
    bucket lock excludes. *)

val value_width : int
(** Values and versions are 32-bit: far above any run's op counts. *)

type store = { get : int -> int -> int; set : int -> int -> int -> unit }
(** The values, by bucket then slot.  The simulator keeps them in
    counted arena registers, the native service in plain lock-guarded
    [int] arrays. *)

type shard_ops = { reads : int; updates : int; scans : int; rmws : int }

module Make (M : Cfc_base.Mem_intf.MEM) (A : Cfc_mutex.Mutex_intf.ALG) : sig
  type t

  val create :
    Cfc_mutex.Mutex_intf.params -> buckets:int -> keys:int -> writers:int ->
    (slots:int -> store) -> t
  (** Creates one lock per bucket, then the store of [⌈keys / buckets⌉]
      slots per bucket, then the version registers ["kv.ver[b]"].  The
      operation counts and witness expectations are kept in one tally
      per writer [0 .. writers-1]; a tally has one writer at a time. *)

  val client :
    t -> Cfc_core.Client.rig -> writer:int -> me:int ->
    route:(int -> int -> unit) -> Ycsb.stream -> ops:int -> unit -> unit
  (** [client t rig ~writer ~me ~route s ~ops] is client [me]'s body: for
      each of the next [ops] operations of [s], [route me b] with its
      bucket [b], then one {!Cfc_core.Client.cycle} on [b]'s lock whose
      critical section performs it, counted in tally [writer].
      Allocates nothing per operation beyond {!Ycsb.next}. *)

  val shard_ops : t -> bucket:int -> shard_ops
  val torn_scans : t -> int

  val lost_updates : t -> final:(M.reg -> int) -> int
  (** Once the clients are done: the version bumps the tallies expect
      minus each version's [final] value, summed over the buckets. *)
end
