(* Repeatable performance benchmark: one workload per process, measured
   for a fixed number of seconds.

     dune exec bench/perf/perf.exe -- --workload NAME [--seed N]
       [--seconds S] [--trace 0|1]

   The untraced run (--trace 0) times the product's own entry points:
   Mutex_harness.contention_free_streaming, Kv_sim.run, Props.check_mutex
   and Lock_service.run.  The traced run (--trace 1) composes the same
   work from the layers' public functions with a span around each call,
   checks that it reproduces the untraced run's exact counts, and reports
   per-layer self time, allocation and counts.  Workloads, metrics and
   bounds are described in README.md; BENCHMARK.json declares them.

   Output: a table on stdout, then one JSON line with run details (host,
   per-metric samples, pinned counts, failed checks), then the result line
   {"correct", "attempted", "failed", "metrics"}.  Exit code 1 when any
   operation failed, 2 on bad arguments. *)

open Cfc_base
open Cfc_runtime
open Cfc_mutex
open Cfc_core
open Cfc_workload
open Cfc_mcheck
open Cfc_native

let now_ns () = Int64.to_int (Monotonic_clock.now ()) (* lint-allow: wall-clock — benchmark timer *)

let t_start = Perf_start.ns

let words () = int_of_float (Gc.minor_words ())

(* Minor words allocated by every domain so far, exact: the minor
   collection makes the current domain's count current, and domains that
   have been joined are already in the total. *)
let all_words () =
  Gc.minor ();
  int_of_float (Gc.quick_stat ()).Gc.minor_words

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b
let secs ns = float_of_int ns /. 1e9

(* ---------- host speed ---------- *)

(* A shared VM runs the same code up to twice as slowly while its
   neighbours are busy, for anything from milliseconds to minutes, so raw
   host seconds drift between two runs by more than any useful bound.  A
   fixed kernel, run after every call into the product for a third as long
   as the call took, measures the host's speed over the same stretch of
   time; end-to-end times are reported in reference seconds: host seconds
   × (nominal_ns ÷ the kernel's mean chunk time over the repetition) ^
   the workload's sensitivity.

   The kernel is benchmark code that no change to the product touches.
   It does what the product's inner loops do — hashes keys into an
   open-addressed table, branches on the operation, calls through a
   closure table, and writes a stream of fresh words through a buffer the
   size of the minor heap — so the host's busy periods slow it as they
   slow the product.  (A pointer chase through a 256 KiB cycle, tried
   first, tracked the simulator's slow-downs at a correlation of 0.5 and
   left per-run spreads of over 20 % on a busy host.)  Its storage is
   Bigarrays, outside the OCaml heap, and it allocates nothing, so it
   neither adds work to the GC it measures nor takes over the product's
   pending collections. *)
module Host = struct
  open Bigarray

  let slots = 1 lsl 14
  let nursery_words = 1 lsl 18
  let chunk_iters = 1 lsl 16

  (* A chunk's time on a quiet host. *)
  let nominal_ns = 500_000

  type store = {
    keys : (int, int_elt, c_layout) Array1.t;
    vals : (int, int_elt, c_layout) Array1.t;
    nursery : (int, int_elt, c_layout) Array1.t;
  }

  (* Built after the process start-up that setup_s counts, and before the
     set-ups fork. *)
  let store =
    lazy
      (let a n v =
         let b = Array1.create int c_layout n in
         Array1.fill b v;
         b
       in
       { keys = a slots (-1); vals = a slots 0; nursery = a nursery_words 0 })

  let fns =
    [| (fun x -> x + 1); (fun x -> x lxor 0x55); (fun x -> (x * 3) land 0xffff);
       (fun x -> x lsr 1) |]

  let top = ref 0

  (* Every chunk does the same work: the key sequence restarts, and after
     the first chunk the table holds every key. *)
  let chunk () =
    let { keys; vals; nursery } = Lazy.force store in
    let st = ref 12345 and acc = ref 0 and t = ref !top in
    for i = 1 to chunk_iters do
      st := ((!st * 1103515245) + 12345) land 0x3fffffff;
      let k = (!st lsr 4) land 4095 in
      let h = ref ((k * 0x9e3779b1) land (slots - 1)) in
      while keys.{!h} <> k && keys.{!h} <> -1 do
        h := (!h + 1) land (slots - 1)
      done;
      (match !st land 3 with
      | 0 -> if keys.{!h} = k then acc := !acc + vals.{!h}
      | 1 | 2 ->
        keys.{!h} <- k;
        vals.{!h} <- i
      | _ -> acc := fns.(!acc land 3) !acc);
      nursery.{!t} <- !acc;
      nursery.{!t + 1} <- i;
      nursery.{!t + 2} <- k;
      t := (!t + 4) land (nursery_words - 1)
    done;
    top := !t;
    ignore (Sys.opaque_identity !acc)

  (* Run the kernel for at least [ns]: an untimed chunk brings its table
     back into cache, then timed chunks.  Returns (ns, chunks). *)
  let run ns =
    chunk ();
    let t0 = now_ns () in
    let chunks = ref 0 in
    while !chunks = 0 || now_ns () - t0 < ns do
      chunk ();
      incr chunks
    done;
    (now_ns () - t0, !chunks)

  (* How much of the kernel's slow-down the workload feels: reference
     seconds are host seconds × (nominal_ns ÷ chunk time) ^ sensitivity.
     Set once per process from the workload. *)
  let sensitivity = ref 1.

  let ref_s ~chunk_ns ns =
    secs ns *. ((float_of_int nominal_ns /. chunk_ns) ** !sensitivity)

  (* Since [start]: host ns in [timed] calls, kernel ns and chunks run,
     and kernel time still owed (a third of every call's time). *)
  let host_ns = ref 0
  let kernel_ns = ref 0
  let chunks = ref 0
  let owed = ref 0

  let start () =
    host_ns := 0;
    kernel_ns := 0;
    chunks := 0;
    owed := 0

  let pay () =
    let ns, c = run !owed in
    kernel_ns := !kernel_ns + ns;
    chunks := !chunks + c;
    owed := !owed - ns

  (* Time one call into the product.  [busy] replaces the call's duration
     when the product times itself (Lock_service's elapsed_ns).  The
     kernel runs once a millisecond of it is owed, so a stream of short
     calls is not dominated by kernel start-ups. *)
  let timed ?busy f =
    let t0 = now_ns () in
    let r = f () in
    let dt = now_ns () - t0 in
    let dt = match busy with Some b -> b r | None -> dt in
    host_ns := !host_ns + dt;
    owed := !owed + (dt / 3);
    if !owed >= 1_000_000 then pay ();
    r

  (* The repetition's mean chunk time; settles what is still owed. *)
  let finish () =
    if !owed > 0 || !chunks = 0 then pay ();
    float_of_int !kernel_ns /. float_of_int !chunks

  (* Mean chunk ns over at least [ns] of kernel. *)
  let chunk_ns ns =
    let ns, c = run ns in
    float_of_int ns /. float_of_int c
end

(* ---------- spans ---------- *)

(* Spans are recorded only in the traced run.  A kind aggregates every
   span of one name in memory (count, inclusive and self ns and minor
   words); self = inclusive minus the spans nested inside.  Frames are
   preallocated and every field is an int, so a span allocates nothing
   and its own words stay out of the layer it measures. *)
module Span = struct
  type kind = {
    name : string;
    layer : string;
    mutable parent : string;
    mutable count : int;
    mutable ns : int;
    mutable self_ns : int;
    mutable words : int;
    mutable self_words : int;
  }

  type frame = {
    mutable k : kind;
    mutable t0 : int;
    mutable w0 : int;
    mutable child_ns : int;
    mutable child_words : int;
  }

  let active = ref false
  let kinds = ref []

  let kind layer what =
    let k =
      { name = layer ^ "." ^ what; layer; parent = ""; count = 0; ns = 0;
        self_ns = 0; words = 0; self_words = 0 }
    in
    kinds := k :: !kinds;
    k

  let root = kind "bench" "root"

  let stack =
    Array.init 16 (fun _ ->
        { k = root; t0 = 0; w0 = 0; child_ns = 0; child_words = 0 })

  let depth = ref 0

  (* Self ns of the span that closed last. *)
  let last_self_ns = ref 0

  (* Called every [poll_every] span closes; the GC event reader hooks in
     here so its ring never overflows between polls. *)
  let on_poll = ref (fun () -> ())
  let poll_every = 4096
  let since_poll = ref 0

  let enter k =
    if !active then begin
      let f = stack.(!depth) in
      f.k <- k;
      f.child_ns <- 0;
      f.child_words <- 0;
      f.w0 <- words ();
      f.t0 <- now_ns ();
      incr depth
    end

  let leave () =
    if !active then begin
      let t1 = now_ns () in
      let w1 = words () in
      decr depth;
      let f = stack.(!depth) in
      let k = f.k in
      let dur = t1 - f.t0 and w = w1 - f.w0 in
      k.count <- k.count + 1;
      k.ns <- k.ns + dur;
      k.self_ns <- k.self_ns + dur - f.child_ns;
      k.words <- k.words + w;
      k.self_words <- k.self_words + w - f.child_words;
      last_self_ns := dur - f.child_ns;
      if !depth > 0 then begin
        let p = stack.(!depth - 1) in
        p.child_ns <- p.child_ns + dur;
        p.child_words <- p.child_words + w;
        k.parent <- p.k.name
      end;
      incr since_poll;
      if !since_poll >= poll_every then begin
        since_poll := 0;
        !on_poll ()
      end
    end

  let span k f =
    enter k;
    match f () with
    | r ->
      leave ();
      r
    | exception e ->
      leave ();
      raise e

  (* Aggregates move from a forked child to its parent: the child zeroes
     them, the parent adds what the child sends back. *)
  type export = (string * int * int * int * int * int) list

  let reset () =
    List.iter
      (fun k ->
        k.count <- 0;
        k.ns <- 0;
        k.self_ns <- 0;
        k.words <- 0;
        k.self_words <- 0)
      !kinds

  let export () : export =
    List.map (fun k -> (k.parent, k.count, k.ns, k.self_ns, k.words, k.self_words)) !kinds

  let import (e : export) =
    List.iter2
      (fun k (parent, count, ns, self_ns, w, self_words) ->
        if count > 0 then k.parent <- parent;
        k.count <- k.count + count;
        k.ns <- k.ns + ns;
        k.self_ns <- k.self_ns + self_ns;
        k.words <- k.words + w;
        k.self_words <- k.self_words + self_words)
      !kinds e
end

let k_rep = Span.kind "other" "rep"
let k_poll = Span.kind "trace" "poll"
let k_wheel_build = Span.kind "wheel" "build"
let k_wheel_create = Span.kind "wheel" "create"
let k_wheel_run = Span.kind "wheel" "run"
let k_online_create = Span.kind "online" "create"
let k_online_feed = Span.kind "online" "feed"
let k_online_query = Span.kind "online" "query"
let k_monitor_create = Span.kind "monitor" "create"
let k_monitor_feed = Span.kind "monitor" "feed"
let k_monitor_query = Span.kind "monitor" "query"
let k_register_reset = Span.kind "register" "reset"
let k_ycsb_stream = Span.kind "ycsb" "stream"
let k_ycsb_next = Span.kind "ycsb" "next"
let k_ycsb_think = Span.kind "ycsb" "think"
let k_explore_run = Span.kind "explore" "run"
let k_explore_system = Span.kind "explore" "system"
let k_independence = Span.kind "independence" "derive"
let k_symmetry = Span.kind "symmetry" "derive"
let k_lock_service = Span.kind "lock_service" "run"

(* ---------- GC phases from Runtime_events ---------- *)

module Gc_events = struct
  let cursor = ref None
  let counting = ref false
  let minor_ns = ref 0
  let major_ns = ref 0
  let lost = ref 0
  let open_at : (int * Runtime_events.runtime_phase, int) Hashtbl.t =
    Hashtbl.create 8

  let ts t = Int64.to_int (Runtime_events.Timestamp.to_int64 t)

  let callbacks =
    let tracked = function
      | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
      | _ -> false
    in
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun ring t phase ->
        if tracked phase then Hashtbl.replace open_at (ring, phase) (ts t))
      ~runtime_end:(fun ring t phase ->
        match Hashtbl.find_opt open_at (ring, phase) with
        | Some t0 when tracked phase ->
          Hashtbl.remove open_at (ring, phase);
          if !counting then begin
            let d = ts t - t0 in
            if phase = Runtime_events.EV_MINOR then minor_ns := !minor_ns + d
            else major_ns := !major_ns + d
          end
        | _ -> ())
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()

  let poll () =
    match !cursor with
    | None -> ()
    | Some c ->
      Span.enter k_poll;
      ignore (Runtime_events.read_poll c callbacks None);
      Span.leave ()

  (* The runtime names its ring <pid>.events in the current directory
     when it starts.  Start it inside a private directory, map the ring,
     then unlink file and directory: the mapping stays valid and nothing
     is left in the checkout. *)
  let start () =
    let dir = Printf.sprintf ".perf-events-%d" (Unix.getpid ()) in
    let cwd = Sys.getcwd () in
    Unix.mkdir dir 0o700;
    Sys.chdir dir;
    Fun.protect
      ~finally:(fun () ->
        Array.iter Sys.remove (Sys.readdir ".");
        Sys.chdir cwd;
        Unix.rmdir dir)
      (fun () ->
        Runtime_events.start ();
        cursor := Some (Runtime_events.create_cursor None));
    Runtime_events.pause ();
    Span.on_poll := poll

  (* A forked child gets a ring of its own, again named <pid>.events in
     the current directory: map it and unlink it as [start] does.  Its
     totals start from zero and go back to the parent. *)
  let after_fork () =
    match !cursor with
    | None -> ()
    | Some c ->
      Runtime_events.free_cursor c;
      cursor := Some (Runtime_events.create_cursor None);
      Sys.remove (Printf.sprintf "%d.events" (Unix.getpid ()));
      Runtime_events.pause ();
      minor_ns := 0;
      major_ns := 0;
      lost := 0

  let export () = (!minor_ns, !major_ns, !lost)

  let import (minor, major, l) =
    minor_ns := !minor_ns + minor;
    major_ns := !major_ns + major;
    lost := !lost + l

  (* Collect GC phases only while [f] runs; the ring is paused outside,
     where nothing polls it. *)
  let around f =
    Runtime_events.resume ();
    poll ();
    counting := true;
    Fun.protect
      ~finally:(fun () ->
        poll ();
        counting := false;
        Runtime_events.pause ())
      f
end

(* ---------- run bookkeeping ---------- *)

(* What one repetition did.  [ops] is the throughput unit (simulated
   accesses, search states or acquisitions); [counts] are exact and
   deterministic for a given repetition seed; [stats] are measurements
   that vary run to run (latencies, coherence counters).  The untraced
   repetition wraps each call into the product in [Host.timed]. *)
type outcome = {
  ops : int;
  attempted : int;
  failed : int;
  counts : (string * int) list;
  stats : (string * int) list;
}

let problems = ref []
let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt

let failed_outcome ~attempted what e =
  problem "%s raised %s" what (Printexc.to_string e);
  { ops = 0; attempted; failed = attempted; counts = []; stats = [] }

(* Compare [expected] with an outcome's counts; any mismatch fails every
   operation of the repetition. *)
let check_counts what expected o =
  let bad =
    List.filter
      (fun (k, v) ->
        match List.assoc_opt k o.counts with
        | Some v' when v' = v -> false
        | got ->
          problem "%s: %s = %s, expected %d" what k
            (match got with Some v' -> string_of_int v' | None -> "missing")
            v;
          true)
      expected
  in
  if bad = [] then o else { o with failed = o.attempted }

(* What a set-up yields: the untraced and the traced repetition, and the
   set-up's own cold run (the untraced repetition, unless a whole one is
   too long to repeat in every set-up). *)
type prepared = {
  untraced : int -> outcome;
  traced : int -> outcome;
  first : int -> outcome;
}

type workload = {
  name : string;
  op : string;
  seeded : bool;
      (** the repetition seed changes the inputs; pins then hold only at
          [pinned_seed] *)
  pins : (string * int) list;
  prepare : unit -> prepared;  (** set-up *)
  isolated : bool;
      (** run each repetition in a forked child: the model checker drops
          continuations without resuming them and OCaml 5.1 keeps their
          fiber stacks, so in one process memory grows by hundreds of MiB
          per repetition *)
  probe : unit -> (string * float) list;
      (** extra per-layer measurements after a traced run *)
  sensitivity : float;
      (** [Host.sensitivity]: the exponent of the kernel's slow-down that
          this workload's own slow-down follows.  Compute-bound code on
          the core's own caches feels nearly all of it; a run dominated
          by floating point (Zipf tables) or by cache-line transfers
          between domains feels less.  Chosen from two sets of ten runs
          per workload as the exponent that left the least spread between
          the runs' medians; see README.md. *)
}

let pinned_seed = 42
let setup_reps = 3
let no_probe () = []
let alg name = Option.get (Registry.find name)

(* ---------- cf-solo ---------- *)

(* BENCH_scale.json, cf_entries row {bakery, n=1024}: cf_steps 3074,
   cf_registers 2048, cf_reads 3070, cf_writes 4, equal to the closed
   forms.  Larger n spills bakery's register scan out of the core's own
   caches, where the host's busy periods slowed it by up to 1.8×, more
   than the host kernel tracks. *)
let cf_n = 1024

let cf_pins =
  [ ("max.steps", 3074); ("max.registers", 2048); ("p0.read_steps", 3070);
    ("p0.write_steps", 4) ]

let sample_counts pid (s : Measures.sample) =
  let key f = Printf.sprintf "p%d.%s" pid f in
  [ (key "steps", s.Measures.steps); (key "registers", s.Measures.registers);
    (key "read_steps", s.Measures.read_steps);
    (key "write_steps", s.Measures.write_steps);
    (key "read_registers", s.Measures.read_registers);
    (key "write_registers", s.Measures.write_registers) ]

(* One measurement per sampled pid; it fails when its sample differs from
   the algorithm's closed form. *)
let cf_outcome (module A : Mutex_intf.ALG) p pids samples extra =
  let predicted = (A.predicted_cf_steps p, A.predicted_cf_registers p) in
  let failed =
    List.length
      (List.filter
         (fun (s : Measures.sample) ->
           (Some s.Measures.steps, Some s.Measures.registers) <> predicted)
         samples)
  in
  let mx = List.fold_left Measures.max_sample Measures.zero samples in
  {
    ops = List.fold_left (fun acc s -> acc + s.Measures.steps) 0 samples;
    attempted = List.length pids;
    failed;
    counts =
      [ ("max.steps", mx.Measures.steps);
        ("max.registers", mx.Measures.registers) ]
      @ List.concat (List.map2 sample_counts pids samples)
      @ extra;
    stats = [];
  }

(* Mutex_harness.contention_free_streaming rebuilt from public functions:
   the checked lock arena with its cs.witness register, then one wheel
   with an Online sink per sampled pid and a reset of the registers the
   run touched. *)
let cf_traced ((module A : Mutex_intf.ALG) as alg) p =
  let n = p.Mutex_intf.n in
  Span.enter k_wheel_build;
  let memory = Memory.create () in
  let module M = (val Sim_mem.mem memory) in
  let module L = A.Make (M) in
  let inst = L.create p in
  let witness =
    M.alloc ~name:"cs.witness" ~width:(Ixmath.bits_needed (max 1 (n - 1)))
      ~init:0 ()
  in
  Span.leave ();
  let spawn me () =
    Proc.region Event.Trying;
    L.lock inst ~me;
    Proc.region Event.Critical;
    M.write witness me;
    if M.read witness <> me then
      raise (Mutex_harness.Critical_section_trampled me);
    Proc.region Event.Exiting;
    L.unlock inst ~me;
    Proc.region Event.Remainder
  in
  let pids = Mutex_harness.sample_pids n in
  let turns = ref 0 and steps = ref 0 and live = ref 0 in
  let events = ref 0 and touched = ref 0 in
  let samples =
    List.map
      (fun me ->
        let online =
          Span.span k_online_create (fun () -> Measures.Online.create ~nprocs:n)
        in
        let sink ~pid body =
          Span.enter k_online_feed;
          Measures.Online.feed online ~pid body;
          Span.leave ()
        in
        Span.enter k_wheel_create;
        let wheel = Wheel.create ~sink ~nprocs:n ~spawn () in
        Wheel.wake wheel me;
        Span.leave ();
        let stopped = Span.span k_wheel_run (fun () -> Wheel.run wheel) in
        if stopped <> Wheel.Quiescent || Option.is_some (Wheel.first_error wheel) then
          failwith (Printf.sprintf "solo run of p%d did not finish" me);
        turns := !turns + Wheel.turns wheel;
        steps := !steps + Wheel.total_steps wheel;
        live := max !live (Wheel.live_peak wheel);
        Span.enter k_online_query;
        let s = Measures.Online.contention_free online ~pid:me in
        let regs = Measures.Online.touched online in
        events := !events + Measures.Online.events_seen online;
        Span.leave ();
        Span.enter k_register_reset;
        List.iter Register.reset regs;
        Span.leave ();
        touched := !touched + List.length regs;
        s)
      pids
  in
  cf_outcome alg p pids samples
    [ ("turns", !turns); ("steps", !steps); ("live_peak", !live);
      ("online_events", !events); ("touched", !touched) ]

let cf_solo =
  {
    name = "cf-solo";
    op = "simulated access";
    seeded = false;
    pins = cf_pins;
    prepare =
      (fun () ->
        let alg = Registry.bakery and p = Mutex_intf.params cf_n in
        let pids = Mutex_harness.sample_pids cf_n in
        let untraced _ =
          let r =
            Host.timed (fun () -> Mutex_harness.contention_free_streaming alg p)
          in
          cf_outcome alg p pids (Array.to_list r.Mutex_harness.per_process) []
        in
        { untraced; traced = (fun _ -> cf_traced alg p); first = untraced });
    probe = no_probe;
    isolated = false;
    sensitivity = 0.9;
  }

(* ---------- kv-spin, kv-fanout ---------- *)

(* A KV op fails when a lost-update or torn-scan witness fires; a
   shortfall of acquisitions fails them all. *)
let kv_outcome ~total_ops ~steps counts =
  let get k = List.assoc k counts in
  let failed =
    if get "acquisitions" <> total_ops then total_ops
    else min total_ops (get "lost" + get "torn")
  in
  { ops = steps; attempted = total_ops; failed; counts; stats = [] }

let kv_result_outcome (r : Kv_sim.kv_result) =
  kv_outcome ~total_ops:r.Kv_sim.kr_ops ~steps:r.Kv_sim.kr_total_steps
    [ ("turns", r.Kv_sim.kr_turns); ("steps", r.Kv_sim.kr_total_steps);
      ("entry_max", r.Kv_sim.kr_entry_steps_max);
      ("acquisitions", r.Kv_sim.kr_acquisitions);
      ("lost", r.Kv_sim.kr_lost_updates); ("torn", r.Kv_sim.kr_torn_scans);
      ("spawned", r.Kv_sim.kr_spawned); ("live_peak", r.Kv_sim.kr_live_peak);
      ( "hot_ops",
        Float.to_int
          (Float.round (r.Kv_sim.kr_hot_share *. float_of_int r.Kv_sim.kr_ops)) );
      ( "online_events",
        Array.fold_left (fun acc s -> acc + s.Kv_sim.ss_events) 0
          r.Kv_sim.kr_shards ) ]

(* Kv_sim.run rebuilt from public functions (same arena layout, same
   per-shard projection, same generators), with spans around the
   generators, the Online and Monitor sinks and the wheel.  It reports
   the same counts as [kv_result_outcome], so the equivalence check
   compares like with like. *)
let kv_traced (module A : Mutex_intf.ALG) (kc : Kv_sim.kv_config) =
  let n = kc.Kv_sim.kc_clients and nb = kc.Kv_sim.kc_buckets in
  let p = Mutex_intf.params n in
  Span.enter k_wheel_build;
  let memory = Memory.create () in
  let module M = (val Sim_mem.mem memory) in
  let module L = A.Make (M) in
  let locks = Array.init nb (fun _ -> L.create p) in
  let value_width = 32 in
  let value_mask = (1 lsl value_width) - 1 in
  let nslots = (kc.Kv_sim.kc_keys + nb - 1) / nb in
  let stores =
    Array.init nb (fun b ->
        M.alloc_array ~name:(Printf.sprintf "kv.store.b%d" b)
          ~width:value_width ~init:0 nslots)
  in
  let versions = M.alloc_array ~name:"kv.ver" ~width:value_width ~init:0 nb in
  Span.leave ();
  let target = Array.make n 0 in
  let online =
    Span.span k_online_create (fun () ->
        Array.init nb (fun _ -> Measures.Online.create ~nprocs:n))
  in
  let monitors =
    Span.span k_monitor_create (fun () ->
        Array.init nb (fun _ -> Spec.Monitor.mutual_exclusion ()))
  in
  let monitor_events = ref 0 in
  let sink ~pid body =
    let b = target.(pid) in
    Span.enter k_online_feed;
    Measures.Online.feed online.(b) ~pid body;
    Span.leave ();
    Span.enter k_monitor_feed;
    Spec.Monitor.feed monitors.(b) ~pid body;
    Span.leave ();
    incr monitor_events
  in
  let ops_by_kind = Array.make_matrix nb 4 0 in
  let expected_bumps = Array.make nb 0 in
  let torn_scans = ref 0 in
  let seed = kc.Kv_sim.kc_seed in
  let spawn me =
    Span.enter k_ycsb_stream;
    let think = Workload.think_stream ~seed ~pid:me in
    let ops =
      Ycsb.stream ~seed ~client:me ~nkeys:kc.Kv_sim.kc_keys
        ~theta:kc.Kv_sim.kc_theta kc.Kv_sim.kc_mix
    in
    Span.leave ();
    fun () ->
      for i = 1 to kc.Kv_sim.kc_ops do
        Span.enter k_ycsb_next;
        let op = Ycsb.next ops in
        Span.leave ();
        let key = Ycsb.key_of op in
        let b = key mod nb and slot = key / nb in
        target.(me) <- b;
        Span.enter k_ycsb_think;
        let d = think ~mean:kc.Kv_sim.kc_mean_think in
        Span.leave ();
        if d > 0 then Proc.sleep d;
        Proc.region Event.Trying;
        L.lock locks.(b) ~me;
        Proc.region Event.Critical;
        (match op with
        | Ycsb.Read _ ->
          ops_by_kind.(b).(0) <- ops_by_kind.(b).(0) + 1;
          ignore (M.read stores.(b).(slot))
        | Ycsb.Update _ ->
          ops_by_kind.(b).(1) <- ops_by_kind.(b).(1) + 1;
          expected_bumps.(b) <- expected_bumps.(b) + 1;
          M.write stores.(b).(slot)
            (((me lsl 16) lor (i land 0xffff)) land value_mask);
          let v = M.read versions.(b) in
          M.write versions.(b) ((v + 1) land value_mask)
        | Ycsb.Scan (_, len) ->
          ops_by_kind.(b).(2) <- ops_by_kind.(b).(2) + 1;
          let v0 = M.read versions.(b) in
          for j = 0 to len - 1 do
            ignore (M.read stores.(b).((slot + j) mod nslots))
          done;
          if M.read versions.(b) <> v0 then incr torn_scans
        | Ycsb.Rmw _ ->
          ops_by_kind.(b).(3) <- ops_by_kind.(b).(3) + 1;
          expected_bumps.(b) <- expected_bumps.(b) + 1;
          let v = M.read stores.(b).(slot) in
          M.write stores.(b).(slot) ((v + 1) land value_mask);
          let v = M.read versions.(b) in
          M.write versions.(b) ((v + 1) land value_mask));
        Proc.region Event.Exiting;
        L.unlock locks.(b) ~me;
        Proc.region Event.Remainder
      done
  in
  Span.enter k_wheel_create;
  let wheel = Wheel.create ~sink ~nprocs:n ~spawn () in
  for pid = 0 to n - 1 do
    Wheel.wake wheel pid
  done;
  Span.leave ();
  let max_turns = 20_000 * n * max 1 kc.Kv_sim.kc_ops in
  let stopped = Span.span k_wheel_run (fun () -> Wheel.run ~max_turns wheel) in
  if stopped <> Wheel.Quiescent || Option.is_some (Wheel.first_error wheel) then
    failwith "kv run did not finish";
  Span.enter k_monitor_query;
  Array.iteri
    (fun b m ->
      if Option.is_some (Spec.Monitor.result m) then
        failwith (Printf.sprintf "bucket %d: exclusion violated" b))
    monitors;
  Span.leave ();
  let lost = ref 0 in
  let ver_regs =
    List.filter
      (fun r ->
        String.length r.Register.name >= 7
        && String.sub r.Register.name 0 7 = "kv.ver[")
      (Memory.registers memory)
  in
  List.iteri
    (fun b r -> lost := !lost + (expected_bumps.(b) - Register.read r))
    ver_regs;
  Span.enter k_online_query;
  let shards =
    Array.init nb (fun b ->
        let entries = Measures.Online.wc_entries online.(b) in
        let steps = List.map (fun (_, s) -> s.Measures.steps) entries in
        (List.length entries, List.fold_left max 0 steps,
         Measures.Online.events_seen online.(b),
         Measures.Online.touched_count online.(b)))
  in
  Span.leave ();
  let hot =
    Array.fold_left max 0 (Array.map (Array.fold_left ( + ) 0) ops_by_kind)
  in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 shards in
  kv_outcome ~total_ops:(n * kc.Kv_sim.kc_ops) ~steps:(Wheel.total_steps wheel)
    [ ("turns", Wheel.turns wheel); ("steps", Wheel.total_steps wheel);
      ("entry_max", Array.fold_left (fun acc (_, m, _, _) -> max acc m) 0 shards);
      ("acquisitions", sum (fun (a, _, _, _) -> a)); ("lost", !lost);
      ("torn", !torn_scans); ("spawned", Wheel.spawned wheel);
      ("live_peak", Wheel.live_peak wheel); ("hot_ops", hot);
      ("online_events", sum (fun (_, _, ev, _) -> ev));
      ("monitor_events", !monitor_events);
      ("touched", sum (fun (_, _, _, t) -> t)) ]

(* Set-up repetitions run the committed row's configuration at seed 42
   and must reproduce it; timed repetitions draw fresh seeds. *)
let kv_workload ~name ~lock ~config ~pins ~sensitivity =
  {
    name;
    op = "simulated access";
    seeded = true;
    pins;
    prepare =
      (fun () ->
        let a = alg lock in
        let kc seed = { config with Kv_sim.kc_seed = seed } in
        let attempted = config.Kv_sim.kc_clients * config.Kv_sim.kc_ops in
        let untraced seed =
          try kv_result_outcome (Host.timed (fun () -> Kv_sim.run a (kc seed)))
          with e -> failed_outcome ~attempted "kv run" e
        in
        let traced seed =
          try kv_traced a (kc seed)
          with e -> failed_outcome ~attempted "traced kv run" e
        in
        { untraced; traced; first = untraced });
    probe = no_probe;
    isolated = false;
    sensitivity;
  }

let kv_config ~clients ~theta ~mix =
  { Kv_sim.kc_clients = clients; kc_buckets = 16; kc_keys = 4096; kc_ops = 4;
    kc_mean_think = 4 * clients; kc_theta = theta; kc_mix = mix;
    kc_seed = pinned_seed }

(* BENCH_kv.json, wheel_entries row {lamport-fast+backoff, clients 256,
   theta 0.0, mix A}: acquisitions 1024, entry_steps_max 268, turns
   596293, total_steps 350253, spawned 256, live_peak 256, hot_share
   0.076172 (78 of 1024 ops). *)
let kv_spin =
  kv_workload ~name:"kv-spin" ~lock:"lamport-fast+backoff"
    ~config:(kv_config ~clients:256 ~theta:0.0 ~mix:Ycsb.mix_a)
    ~pins:
      [ ("acquisitions", 1024); ("lost", 0); ("torn", 0); ("entry_max", 268);
        ("turns", 596293); ("steps", 350253); ("spawned", 256);
        ("live_peak", 256); ("hot_ops", 78) ]
    ~sensitivity:0.75

(* BENCH_kv.json, wheel_entries row {mcs-lock, clients 4096, theta 0.99,
   mix A}: acquisitions 16384, entry_steps_max 3, turns 124446,
   total_steps 118961, spawned 4096, live_peak 4096, hot_share 0.154236
   (2527 of 16384 ops). *)
let kv_fanout =
  kv_workload ~name:"kv-fanout" ~lock:"mcs-lock"
    ~config:(kv_config ~clients:4096 ~theta:0.99 ~mix:Ycsb.mix_a)
    ~pins:
      [ ("acquisitions", 16384); ("lost", 0); ("torn", 0); ("entry_max", 3);
        ("turns", 124446); ("steps", 118961); ("spawned", 4096);
        ("live_peak", 4096); ("hot_ops", 2527) ]
    ~sensitivity:0.4

(* ---------- mc-unreduced, mc-reduced ---------- *)

type pin = {
  states : int;
  dedup : int;
  sym : int;
  por : int;
  seen_pop : int;
  truncated : bool;
}

(* Every check runs at n=3 under the configuration of the committed n=3
   rows. *)
let mc_params = Mutex_intf.params 3

let mc_config =
  { Explore.max_depth = 90; max_steps_per_proc = 25; max_states = 150_000 }

type reduction = Unreduced | Por | Por_sym

let reduction_name = function
  | Unreduced -> "incremental"
  | Por -> "por"
  | Por_sym -> "por+sym"

(* BENCH_mcheck.json, engine "incremental", n=3 rows: one unreduced check
   per registry lock. *)
let mc_unreduced_rows =
  List.map
    (fun (name, pin) -> (name, Unreduced, pin))
    [ ("lamport-fast", { states = 150000; dedup = 83009; sym = 0; por = 0; seen_pop = 66991; truncated = true });
      ("tree-lamport", { states = 150000; dedup = 83009; sym = 0; por = 0; seen_pop = 66991; truncated = true });
      ("peterson-2p-tournament", { states = 10389; dedup = 6207; sym = 0; por = 0; seen_pop = 4182; truncated = false });
      ("kessels-2p-tournament", { states = 14381; dedup = 8705; sym = 0; por = 0; seen_pop = 5676; truncated = false });
      ("dekker-2p-tournament", { states = 8666; dedup = 5045; sym = 0; por = 0; seen_pop = 3621; truncated = false });
      ("bakery", { states = 60378; dedup = 36680; sym = 0; por = 0; seen_pop = 23698; truncated = false });
      ("one-bit", { states = 3172; dedup = 1724; sym = 0; por = 0; seen_pop = 1448; truncated = false });
      ("tas-lock", { states = 232; dedup = 120; sym = 0; por = 0; seen_pop = 112; truncated = false });
      ("recoverable-tas", { states = 1528; dedup = 767; sym = 0; por = 0; seen_pop = 761; truncated = false });
      ("recoverable-queue", { states = 150000; dedup = 77539; sym = 0; por = 0; seen_pop = 72461; truncated = true });
      ("lamport-fast+backoff", { states = 46738; dedup = 29423; sym = 0; por = 0; seen_pop = 17315; truncated = false });
      ("lamport-fast-packed", { states = 150000; dedup = 81773; sym = 0; por = 0; seen_pop = 68227; truncated = true });
      ("mcs-lock", { states = 4681; dedup = 2587; sym = 0; por = 0; seen_pop = 2094; truncated = false }) ]

(* BENCH_mcheck.json, engine "por" n=3 rows (every lock) and "por+sym"
   n=3 rows (the locks whose access graphs admit a pid group). *)
let mc_reduced_rows =
  List.map
    (fun (name, pin) -> (name, Por, pin))
    [ ("lamport-fast", { states = 60814; dedup = 11381; sym = 0; por = 59311; seen_pop = 47571; truncated = false });
      ("tree-lamport", { states = 60814; dedup = 11381; sym = 0; por = 59311; seen_pop = 47571; truncated = false });
      ("peterson-2p-tournament", { states = 2350; dedup = 273; sym = 0; por = 2629; seen_pop = 2072; truncated = false });
      ("kessels-2p-tournament", { states = 2683; dedup = 265; sym = 0; por = 3110; seen_pop = 2413; truncated = false });
      ("dekker-2p-tournament", { states = 2306; dedup = 306; sym = 0; por = 2524; seen_pop = 1902; truncated = false });
      ("bakery", { states = 14382; dedup = 2560; sym = 0; por = 14558; seen_pop = 11524; truncated = false });
      ("one-bit", { states = 1386; dedup = 291; sym = 0; por = 1004; seen_pop = 1027; truncated = false });
      ("tas-lock", { states = 150; dedup = 45; sym = 0; por = 59; seen_pop = 103; truncated = false });
      ("recoverable-tas", { states = 893; dedup = 242; sym = 0; por = 333; seen_pop = 649; truncated = false });
      ("recoverable-queue", { states = 150000; dedup = 46793; sym = 0; por = 66747; seen_pop = 97677; truncated = true });
      ("lamport-fast+backoff", { states = 11636; dedup = 2920; sym = 0; por = 11579; seen_pop = 8392; truncated = false });
      ("lamport-fast-packed", { states = 101681; dedup = 31430; sym = 0; por = 61116; seen_pop = 63409; truncated = false });
      ("mcs-lock", { states = 2093; dedup = 421; sym = 0; por = 1449; seen_pop = 1516; truncated = false }) ]
  @ List.map
      (fun (name, pin) -> (name, Por_sym, pin))
      [ ("peterson-2p-tournament", { states = 2082; dedup = 232; sym = 23; por = 2260; seen_pop = 1822; truncated = false });
        ("tas-lock", { states = 39; dedup = 10; sym = 4; por = 14; seen_pop = 24; truncated = false });
        ("recoverable-tas", { states = 194; dedup = 34; sym = 28; por = 68; seen_pop = 132; truncated = false }) ]

let row_key (name, red, _) = name ^ "/" ^ reduction_name red

let pin_counts ((_, _, pin) as row) =
  let key f = row_key row ^ "." ^ f in
  [ (key "ok", 1); (key "states", pin.states); (key "pruned_dedup", pin.dedup);
    (key "pruned_sym", pin.sym); (key "pruned_por", pin.por);
    (key "seen_pop", pin.seen_pop);
    (key "truncated", Bool.to_int pin.truncated) ]

let result_stats (r : Explore.result) =
  match r with
  | Explore.Ok s -> (1, s)
  | Explore.Violation { stats; _ } -> (0, stats)

let result_counts row r =
  let ok, (s : Explore.stats) = result_stats r in
  let key f = row_key row ^ "." ^ f in
  [ (key "ok", ok); (key "states", s.Explore.states);
    (key "pruned_dedup", s.Explore.pruned_dedup);
    (key "pruned_sym", s.Explore.pruned_sym);
    (key "pruned_por", s.Explore.pruned_por);
    (key "seen_pop", s.Explore.seen_pop);
    (key "truncated", Bool.to_int s.Explore.truncated);
    (key "runs", s.Explore.runs) ]

(* One verdict per row; it fails when the verdict is not [ok] or the
   truncation flag differs from the committed row.  The throughput unit
   is the search state. *)
let mc_outcome rows results extra =
  let counts = List.concat (List.map2 result_counts rows results) in
  let failed =
    List.length
      (List.filter
         (fun ((_, _, pin) as row) ->
           let get f = List.assoc (row_key row ^ "." ^ f) counts in
           get "ok" <> 1 || get "truncated" <> Bool.to_int pin.truncated)
         rows)
  in
  let states =
    List.fold_left (fun acc r -> acc + (snd (result_stats r)).Explore.states) 0 results
  in
  { ops = states; attempted = List.length rows; failed;
    counts = counts @ extra; stats = [] }

(* The set-up's cold run is the first verdict, on one lock: a whole list
   takes seconds, too long to repeat in every set-up. *)
let mc_first = "mcs-lock"

(* Set-up derives the reduction hints: Independence for every reduced
   row, and Symmetry for every reduced lock — exactly the locks with a
   "por+sym" row must get a group. *)
let mc_workload ~name ~sensitivity rows =
  {
    name;
    op = "search state";
    seeded = false;
    pins = List.concat_map pin_counts rows;
    prepare =
      (fun () ->
        let p = mc_params in
        let hints =
          List.map
            (fun (lock, red, _) ->
              let a = alg lock in
              if red = Unreduced then (a, None, None)
              else begin
                let independence =
                  match Span.span k_independence (fun () -> Independence.mutex a p) with
                  | Some _ as h -> h
                  | None -> failwith (lock ^ ": no independence model")
                in
                let group = Span.span k_symmetry (fun () -> Symmetry.mutex a p) in
                let expected =
                  List.exists (fun (l, r, _) -> l = lock && r = Por_sym) rows
                in
                if Option.is_some group <> expected then
                  failwith
                    (Printf.sprintf "%s: symmetry group %s" lock
                       (if expected then "missing" else "unexpected"));
                (a, independence, if red = Por_sym then group else None)
              end)
            rows
        in
        let check rows hints _ =
          try
            mc_outcome rows
              (List.map
                 (fun (a, independence, symmetry) ->
                   Host.timed (fun () ->
                       Props.check_mutex ~config:mc_config
                         ~engine:Explore.Incremental ?independence ?symmetry a p))
                 hints)
              []
          with e -> failed_outcome ~attempted:(List.length rows) "check" e
        in
        let first_rows, first_hints =
          List.split
            (List.filter
               (fun ((lock, _, _), _) -> lock = mc_first)
               (List.combine rows hints))
        in
        (* Props.check_mutex composed from Explore.run, with a span around
           the search and each system build and a count of the accesses
           the search executes. *)
        let traced _ =
          let accesses = ref 0 and builds = ref 0 in
          let observe_access ~pid:_ ~reg:_ ~kind:_ =
            incr accesses;
            if !accesses land 0x3ff = 0 then !Span.on_poll ()
          in
          try
            let results =
              List.map
                (fun (a, independence, symmetry) ->
                  let system () =
                    incr builds;
                    Span.span k_explore_system (Mutex_harness.system a p)
                  in
                  Span.span k_explore_run (fun () ->
                      Explore.run ~config:mc_config ~engine:Explore.Incremental
                        ?independence ?symmetry ~inc:Spec.Inc.mutual_exclusion
                        ~observe_access ~system
                        ~check:(fun trace ~nprocs ->
                          Spec.mutual_exclusion trace ~nprocs)
                        ()))
                hints
            in
            mc_outcome rows results
              [ ("accesses", !accesses); ("system_builds", !builds) ]
          with e -> failed_outcome ~attempted:(List.length rows) "traced check" e
        in
        { untraced = check rows hints; traced; first = check first_rows first_hints });
    probe = no_probe;
    isolated = true;
    sensitivity;
  }

let mc_unreduced =
  mc_workload ~name:"mc-unreduced" ~sensitivity:0.9 mc_unreduced_rows

let mc_reduced = mc_workload ~name:"mc-reduced" ~sensitivity:0.6 mc_reduced_rows

(* ---------- native-lock ---------- *)

let native_locks = [ "mcs-lock"; "tree-lamport" ]
let native_rounds = 100_000

let native_config seed =
  { Lock_service.default with domains = 2; rounds = native_rounds;
    mean_think = 20; cs_len = 3; seed }

(* An acquisition fails when its run reports a lost update on the
   exclusion witness, or the run completes fewer acquisitions than asked. *)
let native_outcome runs =
  let expected = 2 * native_rounds in
  let acq = List.fold_left (fun acc (_, r) -> acc + r.Lock_service.acquisitions) 0 runs in
  let failed =
    List.fold_left
      (fun acc (_, r) ->
        if r.Lock_service.exclusion_ok && r.Lock_service.acquisitions = expected
        then acc
        else acc + expected)
      0 runs
  in
  let c f = List.fold_left (fun acc (_, r) -> acc + f r.Lock_service.counters) 0 runs in
  {
    ops = acq;
    attempted = expected * List.length native_locks;
    failed;
    counts = [ ("acquisitions", acq) ];
    stats =
      List.concat_map
        (fun (lock, r) ->
          [ ("p50_ns." ^ lock, Float.to_int r.Lock_service.p50_ns);
            ("p99_ns." ^ lock, Float.to_int r.Lock_service.p99_ns) ])
        runs
      @ [ ("rmr", c (fun x -> x.Instr_mem.rmr));
          ("instr_ops", c (fun x -> x.Instr_mem.ops));
          ("cas_attempts", c (fun x -> x.Instr_mem.cas_attempts));
          ("cas_failures", c (fun x -> x.Instr_mem.cas_failures)) ];
  }

let native_lock =
  let run_all ~traced seed =
    try
      native_outcome
        (List.map
           (fun lock ->
             let a = alg lock in
             ( lock,
               if traced then
                 Span.span k_lock_service (fun () ->
                     Lock_service.run a (native_config seed))
               else
                 Host.timed
                   ~busy:(fun r -> r.Lock_service.elapsed_ns)
                   (fun () -> Lock_service.run a (native_config seed)) ))
           native_locks)
    with e ->
      failed_outcome ~attempted:(2 * native_rounds * List.length native_locks)
        "lock service" e
  in
  {
    name = "native-lock";
    op = "acquisition";
    seeded = true;
    pins = [];
    prepare =
      (fun () ->
        let untraced = run_all ~traced:false in
        { untraced; traced = run_all ~traced:true; first = untraced });
    isolated = false;
    sensitivity = 0.4;
    (* Instrumentation overhead and the one-domain uncontended cost, per
       lock; medians of three runs. *)
    probe =
      (fun () ->
        let per_lock f =
          List.map
            (fun lock -> median (List.init 3 (fun _ -> f (alg lock))))
            native_locks
        in
        let plain =
          per_lock (fun a ->
              (Lock_service.run ~instrument:false a (native_config pinned_seed))
                .Lock_service.throughput)
        in
        let instr =
          per_lock (fun a ->
              (Lock_service.run a (native_config pinned_seed)).Lock_service.throughput)
        in
        let unc =
          per_lock (fun a -> Native_harness.uncontended_ns a (Mutex_intf.params 2))
        in
        let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
        [ ("instr_mem.overhead", mean (List.map2 ( /. ) plain instr));
          ("lock.uncontended_ns", mean unc) ]);
  }

let workloads =
  [ cf_solo; kv_spin; kv_fanout; mc_unreduced; mc_reduced; native_lock ]

(* ---------- statistics and output ---------- *)

let peak_rss_mib () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_num x = Printf.sprintf "%.17g" (if Float.is_finite x then x else 0.)

(* A metric: name, unit and its samples (one per repetition or set-up, or
   a single value).  It reports their median. *)
type metric = string * string * float list

(* [metrics] go into the result line; [extra] only into the table and the
   detail line. *)
let print_report ~w ~seed ~seconds ~trace ~reps ~pinned ~(metrics : metric list)
    ~(extra : metric list) ~attempted ~failed =
  let lo_hi xs =
    let a = sorted xs in
    let n = Array.length a in
    if n = 0 then (0., 0.) else (a.(0), a.(n - 1))
  in
  let all = metrics @ extra in
  Printf.printf "%-28s %-12s %14s %14s %14s %4s\n" "metric" "unit" "median" "min"
    "max" "n";
  List.iter
    (fun (name, unit, xs) ->
      let lo, hi = lo_hi xs in
      Printf.printf "%-28s %-12s %14.6g %14.6g %14.6g %4d\n" name unit (median xs) lo
        hi (List.length xs))
    all;
  let detail =
    List.map
      (fun (name, unit, xs) ->
        let lo, hi = lo_hi xs in
        Printf.sprintf
          "%s: {\"unit\": %s, \"median\": %s, \"min\": %s, \"max\": %s, \
           \"n\": %d, \"values\": [%s]}"
          (json_string name) (json_string unit) (json_num (median xs)) (json_num lo)
          (json_num hi) (List.length xs)
          (String.concat ", " (List.map json_num xs)))
      all
  in
  Printf.printf
    "{\"workload\": %s, \"seed\": %d, \"seconds\": %d, \"trace\": %d, \
     \"op\": %s, \"repetitions\": %d, \"host\": {\"cores\": %d, \
     \"ocaml\": %s, \"ocamlrunparam\": %s, \"chunk_nominal_ns\": %d, \
     \"sensitivity\": %s}, \
     \"samples\": {%s}, \"pinned\": {%s}, \"problems\": [%s]}\n"
    (json_string w.name) seed seconds (Bool.to_int trace) (json_string w.op)
    reps
    (Domain.recommended_domain_count ())
    (json_string Sys.ocaml_version)
    (json_string (Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:""))
    Host.nominal_ns (json_num w.sensitivity)
    (String.concat ", " detail)
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%s: %d" (json_string k) v) pinned))
    (String.concat ", " (List.rev_map json_string !problems));
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0 && !problems = [])
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, xs) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
              (json_string name) (json_num (median xs)) (json_string unit))
          metrics))

(* ---------- per-layer metrics of a traced run ---------- *)

(* The span aggregates, written once at the end of a traced run. *)
let print_spans () =
  Printf.printf "%-20s %-20s %10s %12s %12s %14s\n" "span" "parent" "count"
    "total_ms" "self_ms" "self_words";
  List.iter
    (fun k ->
      if k.Span.count > 0 then
        Printf.printf "%-20s %-20s %10d %12.3f %12.3f %14d\n" k.Span.name
          k.Span.parent k.Span.count
          (float_of_int k.Span.ns /. 1e6)
          (float_of_int k.Span.self_ns /. 1e6)
          k.Span.self_words)
    (List.rev !Span.kinds)

type traced_totals = {
  outcomes : outcome list;  (** traced repetitions, in order *)
  traced_walls : float list;
  untraced_walls : float list;
  prepares : int;  (** set-ups run, each deriving the hints once *)
  minor_gcs : int;
  major_gcs : int;
  top_heap_words : int;
  probe : (string * float) list;
}

(* Layers a workload does not exercise read 0.  Exact counts are those of
   the first traced repetition; costs are totals over every traced
   repetition divided by the matching count. *)
let layer_metrics t : metric list =
  let f = float_of_int in
  let entries o = o.counts @ o.stats in
  let select keep os =
    List.concat_map
      (fun o ->
        List.filter_map (fun (k, v) -> if keep k then Some (f v) else None) (entries o))
      os
  in
  let sum keep os = List.fold_left ( +. ) 0. (select keep os) in
  let first_outcome = match t.outcomes with o :: _ -> [ o ] | [] -> [] in
  let first key = sum (( = ) key) first_outcome in
  let total key = sum (( = ) key) t.outcomes in
  let first_suffix suf = sum (fun k -> Filename.check_suffix k suf) first_outcome in
  let total_suffix suf = sum (fun k -> Filename.check_suffix k suf) t.outcomes in
  let has_prefix pre k =
    String.length k >= String.length pre && String.sub k 0 (String.length pre) = pre
  in
  let share layer =
    100.
    *. ratio
         (f (List.fold_left
               (fun acc k -> if k.Span.layer = layer then acc + k.Span.self_ns else acc)
               0 !Span.kinds))
         (f k_rep.Span.ns)
  in
  let self_per k = ratio (f k.Span.self_ns) (f k.Span.count) in
  let words_per k = ratio (f k.Span.self_words) (f k.Span.count) in
  let ntraced = f (List.length t.outcomes) in
  let per_rep_s ns = ratio (secs ns) ntraced in
  let turns = total "turns" and states = total_suffix ".states" in
  let acq = total "acquisitions" in
  let probe k = Option.value (List.assoc_opt k t.probe) ~default:0. in
  List.map
    (fun (n, u, v) -> (n, u, [ v ]))
    [ ("wheel.self_share", "%", share "wheel");
      ("wheel.turn_ns", "ns/turn", ratio (f k_wheel_run.Span.self_ns) turns);
      ("wheel.turn_words", "words/turn", ratio (f k_wheel_run.Span.self_words) turns);
      ("wheel.turns", "count", first "turns");
      ("wheel.steps", "count", first "steps");
      ("wheel.live_peak", "count", first "live_peak");
      ("kv.entry_steps_max", "count", first "entry_max");
      ("kv.steps_per_acq", "steps/acq", ratio (first "steps") (first "acquisitions"));
      ("online.self_share", "%", share "online");
      ("online.feed_ns", "ns/event", self_per k_online_feed);
      ("online.feed_words", "words/event", words_per k_online_feed);
      ("online.events", "count", first "online_events");
      ("online.touched_registers", "count", first "touched");
      ("monitor.self_share", "%", share "monitor");
      ("monitor.feed_ns", "ns/event", self_per k_monitor_feed);
      ("monitor.events", "count", first "monitor_events");
      ("register.self_share", "%", share "register");
      ("register.reset_ns", "ns/reset",
       ratio (f k_register_reset.Span.self_ns) (total "touched"));
      ("ycsb.self_share", "%", share "ycsb");
      ("ycsb.stream_setup_s", "s/rep", per_rep_s k_ycsb_stream.Span.self_ns);
      ("ycsb.next_ns", "ns/op", self_per k_ycsb_next);
      ("explore.self_share", "%", share "explore");
      ("explore.states", "count", first_suffix ".states");
      ("explore.pruned_dedup", "count", first_suffix ".pruned_dedup");
      ("explore.pruned_sym", "count", first_suffix ".pruned_sym");
      ("explore.pruned_por", "count", first_suffix ".pruned_por");
      ("explore.seen_pop", "count", first_suffix ".seen_pop");
      ("explore.truncated_checks", "count", first_suffix ".truncated");
      ("explore.ns_per_state", "ns/state", ratio (f k_explore_run.Span.self_ns) states);
      ("explore.words_per_state", "words/state",
       ratio (f k_explore_run.Span.self_words) states);
      ("explore.accesses_per_state", "accesses/state", ratio (total "accesses") states);
      ("explore.system_builds", "count", first "system_builds");
      ("explore.system_build_s", "s/rep", per_rep_s k_explore_system.Span.ns);
      ("independence.setup_s", "s/setup",
       ratio (secs k_independence.Span.ns) (f t.prepares));
      ("symmetry.setup_s", "s/setup", ratio (secs k_symmetry.Span.ns) (f t.prepares));
      ("lock_service.self_share", "%", share "lock_service");
      ("instr_mem.overhead", "ratio", probe "instr_mem.overhead");
      ("instr_mem.rmr_per_acq", "rmr/acq", ratio (total "rmr") acq);
      ("instr_mem.ops_per_acq", "ops/acq", ratio (total "instr_ops") acq);
      ("instr_mem.cas_fail_ratio", "ratio",
       ratio (total "cas_failures") (total "cas_attempts"));
      ("lock.uncontended_ns", "ns/cycle", probe "lock.uncontended_ns");
      ("latency.p50_ns", "ns/acq", median (select (has_prefix "p50_ns.") t.outcomes));
      ("latency.p99_ns", "ns/acq", median (select (has_prefix "p99_ns.") t.outcomes));
      ("gc.minor_s", "s/rep", per_rep_s !Gc_events.minor_ns);
      ("gc.major_s", "s/rep", per_rep_s !Gc_events.major_ns);
      ("gc.minor_collections", "count/rep", ratio (f t.minor_gcs) ntraced);
      ("gc.major_collections", "count/rep", ratio (f t.major_gcs) ntraced);
      ("gc.top_heap_mib", "MiB", f (t.top_heap_words * (Sys.word_size / 8)) /. 1048576.);
      ("trace.overhead", "ratio",
       ratio (median t.traced_walls) (median t.untraced_walls));
      ("trace.self_share", "%", share "trace");
      ("other.self_share", "%", share "other") ]

(* ---------- driver ---------- *)

let usage () =
  prerr_endline
    ("usage: perf.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
      workloads: "
    ^ String.concat ", " (List.map (fun w -> w.name) workloads));
  exit 2

let parse_args () =
  let workload = ref None and seed = ref pinned_seed and seconds = ref 10 in
  let trace = ref false in
  let int_arg s = match int_of_string_opt s with Some v -> v | None -> usage () in
  let rec go = function
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := int_arg v; go rest
    | "--seconds" :: v :: rest -> seconds := int_arg v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; go rest
    | "--trace" :: rest -> trace := true; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match List.find_opt (fun w -> Some w.name = !workload) workloads with
  | Some w when !seconds >= 1 -> (w, !seed, !seconds, !trace)
  | _ -> usage ()

(* One repetition.  [busy] is the host time of its calls into the product
   and [ref_s] the same in reference seconds; a traced repetition runs
   inside a [rep] span with GC phases collected, and its [busy] is that
   span's wall. *)
type measured = {
  o : outcome;
  busy : int;
  ref_s : float;
  chunk_ns : float;  (** the host kernel's mean chunk time *)
  alloc : int;  (** minor words, every domain *)
  self : int;  (** traced: ns of the repetition outside every layer span *)
  rss : float;  (** VmHWM after the repetition *)
  minor_gcs : int;
  major_gcs : int;
  top_heap_words : int;
}

let measure ~traced rep seed =
  let g0 = Gc.quick_stat () in
  if not traced then Host.start ();
  let w0 = all_words () and t0 = now_ns () in
  let o, self =
    if traced then
      let o = Span.span k_rep (fun () -> Gc_events.around (fun () -> rep seed)) in
      (o, !Span.last_self_ns)
    else (rep seed, 0)
  in
  let wall = now_ns () - t0 in
  let alloc = all_words () - w0 in
  let g1 = Gc.quick_stat () in
  let busy, chunk_ns =
    if traced then (wall, float_of_int Host.nominal_ns)
    else (!Host.host_ns, Host.finish ())
  in
  { o; busy; ref_s = Host.ref_s ~chunk_ns busy; chunk_ns; alloc; self; rss = peak_rss_mib ();
    minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    top_heap_words = g1.Gc.top_heap_words }

let failed_measured what e =
  { o = failed_outcome ~attempted:1 what e; busy = 1; ref_s = 1e-9;
    chunk_ns = float_of_int Host.nominal_ns; alloc = 0;
    self = 0; rss = 0.; minor_gcs = 0; major_gcs = 0; top_heap_words = 0 }

(* Run [f] in a forked child and return its result; whatever the child
   allocates or leaks goes away with it.  Problems, span aggregates and
   GC phase totals travel back with the result. *)
let isolate (f : unit -> 'a) : 'a =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    Gc_events.after_fork ();
    Span.reset ();
    problems := [];
    let result = try Ok (f ()) with e -> Error (Printexc.to_string e) in
    let oc = Unix.out_channel_of_descr w in
    Marshal.to_channel oc
      (result, !problems, Span.export (), Gc_events.export ())
      [];
    close_out oc;
    Unix._exit 0
  | pid -> (
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let got :
        (('a, string) result * string list * Span.export * (int * int * int))
        option =
      try Some (Marshal.from_channel ic) with End_of_file | Failure _ -> None
    in
    close_in ic;
    let _, status = Unix.waitpid [] pid in
    match (got, status) with
    | Some (result, ps, spans, gc), Unix.WEXITED 0 -> (
      problems := ps @ !problems;
      Span.import spans;
      Gc_events.import gc;
      match result with Ok m -> m | Error msg -> failwith msg)
    | _ -> failwith "isolated child did not report")

(* One set-up, in a child forked before any workload state exists:
   prepare the workload, then do its cold run at the pinned seed (42), so
   the lazy initialisation and heap growth a fresh process pays happen in
   every set-up.  Returns the prepare time, the kernel's chunk time just
   after it and the measured cold run. *)
let set_up w =
  let t0 = now_ns () in
  let p = w.prepare () in
  let prep = now_ns () - t0 in
  let k = Host.chunk_ns (prep / 3) in
  (prep, k, measure ~traced:false p.first pinned_seed)

(* Set-ups run until there have been [setup_reps] of them and
   [setup_min_ns] have passed, so a cheap set-up is repeated often enough
   for its median to be steady. *)
let setup_min_ns = 2_000_000_000

let () =
  let init_ns = now_ns () - t_start in
  ignore (Lazy.force Host.store);
  let w, seed, seconds, trace = parse_args () in
  Host.sensitivity := w.sensitivity;
  if trace then begin
    Gc_events.start ();
    Span.active := true
  end;
  let attempted = ref 0 and failed = ref 0 in
  let tally o =
    attempted := !attempted + o.attempted;
    failed := !failed + o.failed
  in
  (* A set-up costs the process's own start-up plus its child's prepare
     and cold run, in reference seconds. *)
  let t_setup = now_ns () in
  let rec set_ups acc =
    if List.length acc >= setup_reps && now_ns () - t_setup >= setup_min_ns then
      List.rev acc
    else begin
      let prep, k, m =
        try isolate (fun () -> set_up w)
        with e -> (0, float_of_int Host.nominal_ns, failed_measured "set-up" e)
      in
      (* A seeded workload's pins hold at seed 42 only, so its set-ups
         check them; the others check theirs on every repetition. *)
      tally (if w.seeded then check_counts (w.name ^ " at seed 42") w.pins m.o else m.o);
      let ref_s = Host.ref_s ~chunk_ns:k (init_ns + prep) +. m.ref_s in
      set_ups ((ref_s, secs (init_ns + prep + m.busy), m) :: acc)
    end
  in
  let setups = set_ups [] in
  let pinned = match setups with (_, _, m) :: _ -> m.o.counts | [] -> [] in
  let p =
    try w.prepare ()
    with e ->
      let fail _ = failed_outcome ~attempted:1 "set-up" e in
      { untraced = fail; traced = fail; first = fail }
  in
  let run ~traced:tr s =
    let rep = if tr then p.traced else p.untraced in
    let m =
      try
        if w.isolated then isolate (fun () -> measure ~traced:tr rep s)
        else measure ~traced:tr rep s
      with e -> failed_measured "repetition" e
    in
    let o = if w.seeded then m.o else check_counts w.name w.pins m.o in
    tally o;
    { m with o }
  in
  (* Another repetition starts while it would end, on the last one's
     duration, no later than half of it past the budget. *)
  let budget = seconds * 1_000_000_000 and t_loop = now_ns () in
  let reps = ref 0 and rep_start = ref t_loop and last = ref 0 in
  let more () =
    let now = now_ns () in
    if !reps > 0 then last := now - !rep_start;
    rep_start := now;
    !reps = 0 || now - t_loop + (!last / 2) < budget
  in
  let metrics, extra =
    if not trace then begin
      let samples = ref [] in
      while more () do
        incr reps;
        samples := run ~traced:false (Ixmath.mix_seed seed !reps) :: !samples
      done;
      let ops m = float_of_int m.o.ops in
      let sum f = List.fold_left (fun acc m -> acc +. f m) 0. !samples in
      ( [ ("ops_per_ref_s", "1/s", List.map (fun m -> ops m /. m.ref_s) !samples);
          ("setup_s", "s", List.map (fun (s, _, _) -> s) setups);
          (* VmHWM of a process that has done one repetition: a set-up
             child, or an isolated repetition's child. *)
          ("peak_rss_mib", "MiB",
           List.map (fun m -> m.rss)
             (if w.isolated then !samples else List.map (fun (_, _, m) -> m) setups));
          ("alloc_words_per_op", "words",
           [ ratio (sum (fun m -> float_of_int m.alloc)) (sum ops) ]) ],
        [ ("raw.ops_per_s", "1/s", List.map (fun m -> ops m /. secs m.busy) !samples);
          ("raw.setup_s", "s", List.map (fun (_, s, _) -> s) setups);
          ("host.chunk_ns", "ns", List.map (fun m -> m.chunk_ns) !samples) ] )
    end
    else begin
      let pairs = ref [] in
      while more () do
        incr reps;
        let s = Ixmath.mix_seed seed !reps in
        (* Alternate which side runs first so drift does not bias the
           overhead ratio. *)
        let u, t =
          if !reps mod 2 = 1 then
            let u = run ~traced:false s in
            (u, run ~traced:true s)
          else
            let t = run ~traced:true s in
            (run ~traced:false s, t)
        in
        (* The traced composition must reproduce the product's exact
           counts, and its layers must account for the repetition: more
           than 5 % of its wall outside every layer span fails the run. *)
        let o =
          check_counts (Printf.sprintf "traced repetition %d" !reps) u.o.counts t.o
        in
        failed := !failed + o.failed - t.o.failed;
        if float_of_int t.self > 0.05 *. float_of_int t.busy then
          problem "traced repetition %d: %.1f %% of its wall outside any layer"
            !reps (100. *. float_of_int t.self /. float_of_int t.busy);
        pairs := (u, { t with o }) :: !pairs
      done;
      let probe =
        try w.probe ()
        with e ->
          problem "probe raised %s" (Printexc.to_string e);
          []
      in
      if !Gc_events.lost > 0 then
        problem "Runtime_events lost %d events" !Gc_events.lost;
      print_spans ();
      let pairs = List.rev !pairs in
      let traced_reps = List.map snd pairs in
      ( layer_metrics
          { outcomes = List.map (fun m -> m.o) traced_reps;
            traced_walls = List.map (fun m -> float_of_int m.busy) traced_reps;
            untraced_walls = List.map (fun (u, _) -> float_of_int u.busy) pairs;
            prepares = List.length setups + 1;
            minor_gcs = List.fold_left (fun acc m -> acc + m.minor_gcs) 0 traced_reps;
            major_gcs = List.fold_left (fun acc m -> acc + m.major_gcs) 0 traced_reps;
            top_heap_words =
              List.fold_left (fun acc m -> max acc m.top_heap_words) 0 traced_reps;
            probe },
        [] )
    end
  in
  print_report ~w ~seed ~seconds ~trace ~reps:!reps ~pinned ~metrics ~extra
    ~attempted:!attempted ~failed:!failed;
  if !failed > 0 || !problems <> [] then exit 1
