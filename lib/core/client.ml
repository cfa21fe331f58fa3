open Cfc_runtime

type rig = {
  think : unit -> unit;
  mark : Event.region -> unit;
  stamp : unit -> int;
  acquired : int -> unit;
}

let sim ~think =
  { think; mark = Proc.region; stamp = (fun () -> 0); acquired = ignore }

let bare = { (sim ~think:ignore) with mark = (fun _ -> ()) }

(* Inlined: a frame more at a suspension point can make a simulated
   process's fiber stack grow, which costs every parked process memory
   and every rebuild a copy. *)
let[@inline] cycle rig ~lock ~unlock l ~me critical x =
  rig.think ();
  rig.mark Event.Trying;
  let t0 = rig.stamp () in
  lock l ~me;
  rig.acquired t0;
  rig.mark Event.Critical;
  critical x;
  rig.mark Event.Exiting;
  unlock l ~me;
  rig.mark Event.Remainder

let clients ?(rounds = 1) (module A : Cfc_mutex.Mutex_intf.ALG) p mem
    ~section =
  let module L = A.Make ((val mem : Cfc_base.Mem_intf.MEM)) in
  let inst = L.create p in
  let critical = section mem in
  fun rig me () ->
    for _ = 1 to rounds do
      cycle rig ~lock:L.lock ~unlock:L.unlock inst ~me critical me
    done

let scratch ~name ~cs_len mem =
  let module M = (val mem : Cfc_base.Mem_intf.MEM) in
  let r = M.alloc ~name ~width:8 ~init:0 () in
  fun _ ->
    for k = 1 to cs_len do
      M.write r (k land 255)
    done
