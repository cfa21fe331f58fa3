(** The lock cycle of every client, written once for every backend:
    think → [Trying] → lock → [Critical] → critical section → [Exiting]
    → unlock → [Remainder].  A backend adds only its {!rig}: a simulator
    rig ({!sim}) marks the §2.2 regions and stamps nothing, a native rig
    ([Cfc_native.Native_harness.rig]) marks nothing and times each
    acquisition.  The checked body of {!Mutex_harness.instantiate}, the
    [Workload] and KV clients and the native services all run {!cycle},
    so the code the simulator and the model checker check is the code
    that runs on real domains. *)

type rig = {
  think : unit -> unit;  (** the remainder-section delay before a cycle *)
  mark : Cfc_runtime.Event.region -> unit;  (** a region annotation *)
  stamp : unit -> int;  (** taken just before [lock] *)
  acquired : int -> unit;
      (** runs as soon as [lock] returns, with the stamp: records the
          acquisition, and may crash the holder and run [lock] again *)
}

val sim : think:(unit -> unit) -> rig
(** Marks each region with {!Cfc_runtime.Proc.region}; stamps 0. *)

val bare : rig
(** Back-to-back cycles: no think, no marks, no stamps. *)

val cycle :
  rig -> lock:('l -> me:int -> unit) -> unlock:('l -> me:int -> unit) ->
  'l -> me:int -> ('a -> unit) -> 'a -> unit
(** [cycle rig ~lock ~unlock l ~me critical x]: one cycle of client [me]
    on lock [l] with critical section [critical x].  It allocates
    nothing and is inlined, so it adds no frame to a simulated
    process's stack. *)

val clients :
  ?rounds:int -> Cfc_mutex.Registry.alg -> Cfc_mutex.Mutex_intf.params ->
  Cfc_base.Mem_intf.mem -> section:(Cfc_base.Mem_intf.mem -> int -> unit) ->
  rig -> int -> unit -> unit
(** [clients alg p mem ~section] creates an instance of [alg] on [mem],
    then [section mem]; applied to a rig and [me], it is client [me]'s
    body: [rounds] (default 1) cycles with critical section
    [section mem me]. *)

val scratch :
  name:string -> cs_len:int -> Cfc_base.Mem_intf.mem -> int -> unit
(** The workloads' critical section: one 8-bit register [name] written
    [cs_len] times, the values [1, 2, …] modulo 256. *)
