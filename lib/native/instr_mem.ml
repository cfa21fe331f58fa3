open Cfc_base

(* One cache line per domain: counters live at [pid * stride], and a
   stride of 16 words (128 bytes) keeps two domains' slots off the same
   line on every mainstream core, so incrementing them is as cheap as a
   private store. *)
let stride = 16
let o_ops = 0
let o_reads = 1
let o_writes = 2
let o_cas_attempts = 3
let o_cas_failures = 4
let o_rmr = 5

type counters = {
  ops : int;
  reads : int;
  writes : int;
  cas_attempts : int;
  cas_failures : int;
  rmr : int;
}

let zero =
  { ops = 0; reads = 0; writes = 0; cas_attempts = 0; cas_failures = 0;
    rmr = 0 }

let add a b =
  {
    ops = a.ops + b.ops;
    reads = a.reads + b.reads;
    writes = a.writes + b.writes;
    cas_attempts = a.cas_attempts + b.cas_attempts;
    cas_failures = a.cas_failures + b.cas_failures;
    rmr = a.rmr + b.rmr;
  }

let pp ppf c =
  Format.fprintf ppf "ops=%d r/w=%d/%d cas=%d(-%d) rmr=%d" c.ops c.reads
    c.writes c.cas_attempts c.cas_failures c.rmr

type t = {
  nprocs : int;
  counts : int array;
  key : int Domain.DLS.key;
  arena : Mem_intf.mem;
  all_holders : int Atomic.t list ref;
      (* every register's holders mask, for [evict]; registers are
         allocated before the workers spawn, so the list itself is never
         mutated concurrently *)
}

let create ~nprocs =
  if nprocs < 1 || nprocs > 62 then
    invalid_arg "Instr_mem.create: nprocs outside 1..62";
  let counts = Array.make (nprocs * stride) 0 in
  let all_holders = ref [] in
  let key = Domain.DLS.new_key (fun () -> -1) in
  let me () =
    let v = Domain.DLS.get key in
    if v < 0 then
      failwith "Instr_mem: domain not registered (call register_worker)";
    v
  in
  let bump pid slot =
    let i = (pid * stride) + slot in
    counts.(i) <- counts.(i) + 1
  in
  (* The YA93 write-invalidate cache model of Measures.Online.remote,
     transplanted: [holders] is the bitmask of pids with a valid cached
     copy.  An access is remote iff the pid's bit is clear; a write
     leaves only the writer's copy valid, a read joins the holders.
     Under true concurrency the mask update races benignly (a reader's
     lost join merely re-counts its next access as remote), so the
     estimate is exact when uncontended and conservative otherwise. *)
  let touch holders ~write pid =
    let bit = 1 lsl pid in
    let h = Atomic.get holders in
    if h land bit = 0 then bump pid o_rmr;
    if write then Atomic.set holders bit
    else if h land bit = 0 then
      ignore (Atomic.compare_and_set holders h (h lor bit))
  in
  let module N = (val Native_mem.mem ()) in
  let arena : Mem_intf.mem =
    (module struct
      type reg = { base : N.reg; holders : int Atomic.t }

      let wrap base =
        let holders = Atomic.make 0 in
        all_holders := holders :: !all_holders;
        { base; holders }
      let alloc ?name ~width ~init () = wrap (N.alloc ?name ~width ~init ())

      let alloc_bit ?name ~model ~init () =
        wrap (N.alloc_bit ?name ~model ~init ())

      let alloc_array ?name ~width ~init k =
        Array.map wrap (N.alloc_array ?name ~width ~init k)

      let alloc_bit_array ?name ~model ~init k =
        Array.map wrap (N.alloc_bit_array ?name ~model ~init k)

      (* One semantic access: mirrors what the simulated backend records
         as a single trace event (internal CAS retries of the base
         backend's bit_op/write_field are invisible there too). *)
      let count r ~write =
        let pid = me () in
        bump pid o_ops;
        bump pid (if write then o_writes else o_reads);
        touch r.holders ~write pid

      let read r =
        let v = N.read r.base in
        count r ~write:false;
        v

      let write r v =
        N.write r.base v;
        count r ~write:true

      let write_field r ~index ~width v =
        N.write_field r.base ~index ~width v;
        count r ~write:true

      (* Classified like Event.is_write (A_bit): by what the operation
         can do, not by whether this application changed the bit. *)
      let bit_op r op =
        let ret = N.bit_op r.base op in
        count r ~write:(Ops.writes op);
        ret

      let fetch_and_store r v =
        let old = N.fetch_and_store r.base v in
        count r ~write:true;
        old

      (* A failed CAS is a read (Event.is_write on A_cas). *)
      let compare_and_set r ~expected v =
        let ok = N.compare_and_set r.base ~expected v in
        let pid = me () in
        bump pid o_cas_attempts;
        if not ok then bump pid o_cas_failures;
        count r ~write:ok;
        ok

      let pause () = N.pause ()
    end : Mem_intf.MEM)
  in
  { nprocs; counts; key; arena; all_holders }

let mem t = t.arena

let evict t ~me =
  if me < 0 || me >= t.nprocs then
    invalid_arg "Instr_mem.evict: me outside 0..nprocs-1";
  (* A crash destroys the process's cache: drop [me]'s bit from every
     register's holders mask, so the restarted incarnation's accesses
     count as remote exactly as in the cold-cache model of
     [Measures.Online.recovery_rmr].  The CAS loop races benignly with
     concurrent mask updates — same conservativity argument as
     [touch]. *)
  let bit = 1 lsl me in
  List.iter
    (fun h ->
      let rec clear () =
        let v = Atomic.get h in
        if v land bit <> 0 && not (Atomic.compare_and_set h v (v land lnot bit))
        then clear ()
      in
      clear ())
    !(t.all_holders)

let register_worker t ~me =
  if me < 0 || me >= t.nprocs then
    invalid_arg "Instr_mem.register_worker: me outside 0..nprocs-1";
  Domain.DLS.set t.key me

let per_domain t =
  Array.init t.nprocs (fun pid ->
      let g slot = t.counts.((pid * stride) + slot) in
      {
        ops = g o_ops;
        reads = g o_reads;
        writes = g o_writes;
        cas_attempts = g o_cas_attempts;
        cas_failures = g o_cas_failures;
        rmr = g o_rmr;
      })

let totals t = Array.fold_left add zero (per_domain t)
