open Cfc_base
open Cfc_mutex

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* ------------------------------------------------------------------ *)
(* The domain driver                                                   *)

type arena = { domains : int; instr : Instr_mem.t; mem : Mem_intf.mem }

let arena ?(instrument = true) ~domains () =
  (* Locks are parameterized by n >= 2; the counters are sized alike. *)
  let instr = Instr_mem.create ~nprocs:(max 2 domains) in
  (* The off switch is using the plain backend: nothing on Native_mem's
     hot path ever consults an instrumentation flag. *)
  let mem = if instrument then Instr_mem.mem instr else Native_mem.mem () in
  (* [create] may initialize registers with counted writes: attribute
     them to worker 0, which runs on the caller anyway. *)
  Instr_mem.register_worker instr ~me:0;
  { domains; instr; mem }

let run a prepare =
  (* The barrier lives outside the arena: it models the clients, not the
     lock, so it is never counted. *)
  let ready = Atomic.make 0 in
  let go = Atomic.make false in
  let worker me () =
    Instr_mem.register_worker a.instr ~me;
    let loop = prepare me in
    Atomic.incr ready;
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    loop ()
  in
  let spawned =
    List.init (a.domains - 1) (fun i -> Domain.spawn (worker (i + 1)))
  in
  (* Another arena may have taken the caller's registration since this
     one was made. *)
  Instr_mem.register_worker a.instr ~me:0;
  let loop0 = prepare 0 in
  while Atomic.get ready < a.domains - 1 do
    Domain.cpu_relax ()
  done;
  let t_start = now_ns () in
  Atomic.set go true;
  loop0 ();
  List.iter Domain.join spawned;
  now_ns () - t_start

let rig ~seed ~pid ~mean ~acquired =
  let draw = Cfc_workload.Workload.think_stream ~seed ~pid in
  let think () =
    for _ = 1 to draw ~mean do
      Domain.cpu_relax ()
    done
  in
  { Cfc_core.Client.bare with think; stamp = now_ns; acquired }

type latency = { count : int; p50_ns : float; p90_ns : float; p99_ns : float;
                 max_ns : int }

let latency hists =
  let h = Latency_hist.create () in
  Array.iter (fun x -> Latency_hist.merge_into ~into:h x) hists;
  { count = Latency_hist.count h;
    p50_ns = Latency_hist.percentile h 0.50;
    p90_ns = Latency_hist.percentile h 0.90;
    p99_ns = Latency_hist.percentile h 0.99;
    max_ns = Latency_hist.max_ns h }

let per_second count ~elapsed_ns =
  if elapsed_ns <= 0 then 0.0
  else Float.of_int count /. (Float.of_int elapsed_ns /. 1e9)

(* ------------------------------------------------------------------ *)
(* EXP-NATIVE                                                          *)

(* Median of [k] timed batches of [iters] calls to [f]; returns ns per
   call. *)
let time_batches ?(k = 5) ~iters f =
  let samples =
    List.init k (fun _ ->
        let t0 = now_ns () in
        for _ = 1 to iters do
          f ()
        done;
        float_of_int (now_ns () - t0) /. float_of_int iters)
  in
  let sorted = List.sort compare samples in
  List.nth sorted (k / 2)

let uncontended_ns ?(iters = 20_000) (module A : Mutex_intf.ALG) p =
  if not (A.supports p) then
    invalid_arg (Printf.sprintf "%s: unsupported params" A.name);
  let module L = A.Make ((val Native_mem.mem ())) in
  let inst = L.create p in
  time_batches ~iters (fun () ->
      L.lock inst ~me:0;
      L.unlock inst ~me:0)

let contended ?(iters = 5_000) ~domains (module A : Mutex_intf.ALG)
    (p : Mutex_intf.params) =
  if domains > p.Mutex_intf.n then invalid_arg "contended: domains > n";
  if not (A.supports p) then
    invalid_arg (Printf.sprintf "%s: unsupported params" A.name);
  let a = arena ~instrument:false ~domains () in
  (* A deliberately non-atomic shared counter: its final value equals the
     total number of critical sections iff mutual exclusion held (lost
     updates would show as a shortfall). *)
  let counter = ref 0 in
  let elapsed =
    run a
      (Cfc_core.Client.clients ~rounds:iters (module A) p a.mem
         ~section:(fun _ _ -> counter := !counter + 1)
         Cfc_core.Client.bare)
  in
  let total = domains * iters in
  (float_of_int elapsed /. float_of_int total, !counter = total)

let naming_ns ?(repeats = 50) (module A : Cfc_naming.Naming_intf.ALG) ~n =
  if not (A.supports ~n) then invalid_arg (A.name ^ ": unsupported n");
  let cores = max 1 (min 4 (Domain.recommended_domain_count () - 1)) in
  (* Native registers carry no per-arena state, so one arena serves
     every repeat; each repeat creates a fresh instance in it. *)
  let a = arena ~instrument:false ~domains:cores () in
  let module N = A.Make ((val a.mem)) in
  let ok = ref true in
  let elapsed = ref 0 in
  for _ = 1 to repeats do
    let inst = N.create ~n in
    (* n naming processes distributed over the available cores in waves;
       each domain runs its share sequentially (a legal schedule). *)
    let results = Array.make n 0 in
    elapsed :=
      !elapsed
      + run a (fun d () ->
            let i = ref d in
            while !i < n do
              results.(!i) <- N.run inst;
              i := !i + cores
            done);
    let sorted = List.sort compare (Array.to_list results) in
    if sorted <> List.init n (fun i -> i + 1) then ok := false
  done;
  (float_of_int !elapsed /. float_of_int repeats, !ok)
