open Cfc_runtime

type sample = {
  steps : int;
  registers : int;
  read_steps : int;
  write_steps : int;
  read_registers : int;
  write_registers : int;
}

let zero =
  { steps = 0; registers = 0; read_steps = 0; write_steps = 0;
    read_registers = 0; write_registers = 0 }

let max_sample a b =
  {
    steps = max a.steps b.steps;
    registers = max a.registers b.registers;
    read_steps = max a.read_steps b.read_steps;
    write_steps = max a.write_steps b.write_steps;
    read_registers = max a.read_registers b.read_registers;
    write_registers = max a.write_registers b.write_registers;
  }

let pp_sample ppf s =
  Format.fprintf ppf "steps=%d regs=%d (r/w steps %d/%d, r/w regs %d/%d)"
    s.steps s.registers s.read_steps s.write_steps s.read_registers
    s.write_registers

let decisions trace ~nprocs =
  ignore nprocs;
  Trace.fold
    (fun acc e ->
      match e.Event.body with
      | Event.Region_change (Event.Decided v) -> (e.Event.pid, v) :: acc
      | Event.Region_change _ | Event.Access _ | Event.Crash | Event.Recover -> acc)
    [] trace
  |> List.rev

(* ------------------------------------------------------------------ *)
(* Streaming measures                                                  *)

module Online = struct
  (* Open-addressed int -> int map for non-negative values: keys and
     values interleave in one array, linear probing, load <= 1/2. *)
  module Itbl = struct
    type t = {
      mutable cells : int array;  (* 2i: key, 2i+1: value *)
      mutable mask : int;         (* capacity - 1, capacity a power of 2 *)
      mutable size : int;
    }

    let empty = min_int

    let create cap = { cells = Array.make (2 * cap) empty; mask = cap - 1; size = 0 }

    let[@inline] hash k =
      let h = k * 0x2545F4914F6CDD1D in
      h lxor (h lsr 29)

    (* Cell index of [k], or of the empty cell where it would go. *)
    let rec probe cells mask k i =
      let c = Array.unsafe_get cells (2 * i) in
      if c = k || c = empty then i else probe cells mask k ((i + 1) land mask)

    let find t k =
      let i = probe t.cells t.mask k (hash k land t.mask) in
      if t.cells.(2 * i) = k then t.cells.((2 * i) + 1) else -1

    let grow t =
      let old = t.cells and old_mask = t.mask in
      let mask = (2 * (old_mask + 1)) - 1 in
      let cells = Array.make (2 * (mask + 1)) empty in
      for j = 0 to old_mask do
        let k = old.(2 * j) in
        if k <> empty then begin
          let i = probe cells mask k (hash k land mask) in
          cells.(2 * i) <- k;
          cells.((2 * i) + 1) <- old.((2 * j) + 1)
        end
      done;
      t.cells <- cells;
      t.mask <- mask

    (* The value bound to [k]; if there is none, bind [k] to [v] and
       return -1. *)
    let[@inline] find_or_add t k v =
      if 2 * (t.size + 1) > t.mask + 1 then grow t;
      let cells = t.cells in
      let i = probe cells t.mask k (hash k land t.mask) in
      if cells.(2 * i) = k then cells.((2 * i) + 1)
      else begin
        cells.(2 * i) <- k;
        cells.((2 * i) + 1) <- v;
        t.size <- t.size + 1;
        -1
      end
  end

  (* A mutable counterpart of [sample] under construction.  Distinct
     registers are counted through per-register stamps (see [pstate]):
     a stamp [gen lsl 2 lor bits] whose generation differs from [gen] is
     a register not yet seen since the last reset, and [bits] records
     whether it was read (1) and written (2) in this generation — so a
     reset only bumps [gen]. *)
  type acc = {
    mutable gen : int;
    mutable a_steps : int;
    mutable a_reads : int;
    mutable a_writes : int;
    mutable a_regs : int;
    mutable a_rregs : int;
    mutable a_wregs : int;
  }

  let acc_create () =
    { gen = 1; a_steps = 0; a_reads = 0; a_writes = 0;
      a_regs = 0; a_rregs = 0; a_wregs = 0 }

  let acc_reset a =
    a.gen <- a.gen + 1;
    a.a_steps <- 0;
    a.a_reads <- 0;
    a.a_writes <- 0;
    a.a_regs <- 0;
    a.a_rregs <- 0;
    a.a_wregs <- 0

  (* Count one access whose stamp for [a] lives at [slots.(off)]. *)
  let[@inline] acc_add a slots off w =
    a.a_steps <- a.a_steps + 1;
    let st = slots.(off) in
    let st =
      if st lsr 2 = a.gen then st
      else begin
        a.a_regs <- a.a_regs + 1;
        a.gen lsl 2
      end
    in
    let bit = if w then 2 else 1 in
    if w then a.a_writes <- a.a_writes + 1 else a.a_reads <- a.a_reads + 1;
    if st land bit = 0 then begin
      if w then a.a_wregs <- a.a_wregs + 1 else a.a_rregs <- a.a_rregs + 1;
      slots.(off) <- st lor bit
    end

  let acc_sample a =
    { steps = a.a_steps;
      registers = a.a_regs;
      read_steps = a.a_reads;
      write_steps = a.a_writes;
      read_registers = a.a_rregs;
      write_registers = a.a_wregs }

  (* Per-process slot layout in [slots]: one row of [stride] ints per
     register the process accessed.  Columns [0..4] are the stamps of the
     five accumulators, [5] the index of the process's last access to the
     register (-2: never), [6] the register's global index in [t]. *)
  let stride = 7
  let c_total = 0
  let c_cf = 1
  let c_entry = 2
  let c_exit = 3
  let c_rec = 4
  let c_last = 5
  let c_reg = 6

  type pstate = {
    mutable region : Event.region;
    slot_of : Itbl.t;   (* register id -> row in [slots] *)
    mutable slots : int array;
    total : acc;        (* every access of the run *)
    cf : acc;           (* accesses while own region is Trying/Exiting *)
    entry : acc;        (* current §2.2 entry window candidate *)
    mutable entry_gen : int;
        (* [clear_gen] value at the last reset/add of [entry]: a mismatch
           means some event with an occupied pre-state happened since, so
           the accumulated accesses fall before the window start *)
    exit_ : acc;        (* current exit fragment *)
    rec_ : acc;         (* current recovery fragment *)
    mutable rec_open : bool;
    mutable rec_rmr : int;
    mutable remote : int;
    mutable crashed_at : int;  (* index of the last Crash event, -1: none *)
  }

  type t = {
    o_nprocs : int;
    proc_of : Itbl.t;   (* pid -> index in [procs] *)
    mutable procs : pstate array;
    mutable last_pid : int;  (* [last] caches the most recent pid lookup *)
    mutable last : pstate;
    mutable events : int;
    mutable occupied : int;
        (* processes whose region is Critical or Exiting — the §2.2
           occupancy predicate over the pre-event state *)
    mutable clear_gen : int;
        (* bumped once per event whose pre-state is occupied, so a window
           start moves past every occupied state without touching every
           process's entry accumulator *)
    mutable entries : (int * sample) list;  (* reversed *)
    mutable exits : (int * sample) list;
    mutable recs : (int * sample) list;
    mutable rec_rmrs : (int * int) list;
    reg_of : Itbl.t;    (* register id -> global index *)
    mutable regs : Register.t array;  (* by global index *)
    mutable last_write : int array;
        (* by global index: index of the register's last write event, -1
           if none.  A process holds a valid copy (write-invalidate) iff
           its last access is at or after the last write *)
  }

  let pstate_create () =
    { region = Event.Remainder;
      slot_of = Itbl.create 8; slots = [||];
      total = acc_create (); cf = acc_create ();
      entry = acc_create (); entry_gen = 0;
      exit_ = acc_create (); rec_ = acc_create ();
      rec_open = false; rec_rmr = 0; remote = 0; crashed_at = -1 }

  let create ~nprocs =
    { o_nprocs = nprocs;
      proc_of = Itbl.create 8; procs = [||];
      last_pid = -1; last = pstate_create ();
      events = 0; occupied = 0; clear_gen = 0;
      entries = []; exits = []; recs = []; rec_rmrs = [];
      reg_of = Itbl.create 16; regs = [||]; last_write = [||] }

  (* [a] with room for index [n], keeping its first [n] cells. *)
  let grown a n fill =
    if n < Array.length a then a
    else begin
      let b = Array.make (max 8 (2 * Array.length a)) fill in
      Array.blit a 0 b 0 n;
      b
    end

  let find_pstate t pid =
    let i = Itbl.find t.proc_of pid in
    if i < 0 then None else Some t.procs.(i)

  let pstate t pid =
    if pid < 0 || pid >= t.o_nprocs then
      invalid_arg "Measures.Online: pid out of range";
    if pid = t.last_pid then t.last
    else begin
      let n = t.proc_of.Itbl.size in
      let i = Itbl.find_or_add t.proc_of pid n in
      let p =
        if i >= 0 then t.procs.(i)
        else begin
          let p = pstate_create () in
          t.procs <- grown t.procs n p;
          t.procs.(n) <- p;
          p
        end
      in
      t.last_pid <- pid;
      t.last <- p;
      p
    end

  let reg_index t (r : Register.t) =
    let n = t.reg_of.Itbl.size in
    let g = Itbl.find_or_add t.reg_of r.Register.id n in
    if g >= 0 then g
    else begin
      t.regs <- grown t.regs n r;
      t.regs.(n) <- r;
      t.last_write <- grown t.last_write n (-1);
      t.last_write.(n) <- -1;
      n
    end

  (* Offset of [r]'s row in [p.slots], allocating the row on first use. *)
  let slot t p (r : Register.t) =
    let n = p.slot_of.Itbl.size in
    let s = Itbl.find_or_add p.slot_of r.Register.id n in
    if s >= 0 then s * stride
    else begin
      let off = n * stride in
      if off + stride > Array.length p.slots then begin
        let b = Array.make (2 * max (4 * stride) (Array.length p.slots)) 0 in
        Array.blit p.slots 0 b 0 off;
        p.slots <- b
      end;
      (* A fresh row's stamps are 0: generation 0 is never current. *)
      p.slots.(off + c_last) <- -2;
      p.slots.(off + c_reg) <- reg_index t r;
      off
    end

  let in_cs_or_exit = function
    | Event.Critical | Event.Exiting -> true
    | Event.Remainder | Event.Trying | Event.Decided _ | Event.Halted -> false

  let feed t ~pid body =
    let p = pstate t pid in
    let pre = p.region in
    (* Pre-state occupancy advances the window clock for every event:
       the §2.2 window of a later entry starts after this event. *)
    if t.occupied > 0 then t.clear_gen <- t.clear_gen + 1;
    (match body with
    | Event.Access (r, k) ->
      let w = Event.is_write k in
      let off = slot t p r in
      let slots = p.slots in
      acc_add p.total slots (off + c_total) w;
      (match pre with
      | Event.Trying | Event.Exiting -> acc_add p.cf slots (off + c_cf) w
      | Event.Remainder | Event.Critical | Event.Decided _ | Event.Halted ->
        ());
      (* Entry-window candidate: only Trying accesses can land in a §2.2
         window; an access is in the window iff no later event (itself
         included) has an occupied pre-state, which the generation
         counter tracks lazily. *)
      (match pre with
      | Event.Trying ->
        if p.entry_gen <> t.clear_gen then begin
          acc_reset p.entry;
          p.entry_gen <- t.clear_gen
        end;
        if t.occupied = 0 then acc_add p.entry slots (off + c_entry) w
      | Event.Remainder | Event.Critical | Event.Exiting | Event.Decided _
      | Event.Halted -> ());
      (match pre with
      | Event.Exiting -> acc_add p.exit_ slots (off + c_exit) w
      | Event.Remainder | Event.Trying | Event.Critical | Event.Decided _
      | Event.Halted -> ());
      if p.rec_open then acc_add p.rec_ slots (off + c_rec) w;
      (* Write-invalidate holders: [pid]'s copy is valid iff its last
         access is no older than the last write, and for the recovery
         RMR also newer than its last crash, which destroyed the dying
         incarnation's copies. *)
      let g = slots.(off + c_reg) in
      let last = slots.(off + c_last) in
      let stale = last < t.last_write.(g) in
      if stale then p.remote <- p.remote + 1;
      if p.rec_open && (stale || last <= p.crashed_at) then
        p.rec_rmr <- p.rec_rmr + 1;
      slots.(off + c_last) <- t.events;
      if w then t.last_write.(g) <- t.events
    | Event.Region_change r ->
      (* Close §2.2 entry windows: Trying -> Critical. *)
      (match r with
      | Event.Critical when Event.region_equal pre Event.Trying ->
        let s =
          if p.entry_gen = t.clear_gen then acc_sample p.entry else zero
        in
        t.entries <- (pid, s) :: t.entries
      | _ -> ());
      (* Close exit fragments: any region change out of Exiting.  An
         Exiting -> Exiting re-entry only restarts the fragment. *)
      (match r with
      | Event.Exiting -> acc_reset p.exit_
      | _ when Event.region_equal pre Event.Exiting ->
        t.exits <- (pid, acc_sample p.exit_) :: t.exits
      | _ -> ());
      (* Close recovery fragments: any entry to Critical. *)
      (match r with
      | Event.Critical when p.rec_open ->
        p.rec_open <- false;
        t.recs <- (pid, acc_sample p.rec_) :: t.recs;
        t.rec_rmrs <- (pid, p.rec_rmr) :: t.rec_rmrs
      | _ -> ());
      (match r with
      | Event.Trying ->
        acc_reset p.entry;
        p.entry_gen <- t.clear_gen
      | _ -> ());
      let was = in_cs_or_exit pre and now = in_cs_or_exit r in
      if was && not now then t.occupied <- t.occupied - 1
      else if now && not was then t.occupied <- t.occupied + 1;
      p.region <- r
    | Event.Crash ->
      (* Fragments are abandoned and the dying incarnation's cached
         copies destroyed (the cold-cache recovery RMR) by stamping the
         crash, O(1); the region stays stale on purpose — strong
         occupancy, as in Trace.fold_states. *)
      p.rec_open <- false;
      p.crashed_at <- t.events
    | Event.Recover ->
      p.rec_open <- true;
      acc_reset p.rec_;
      p.rec_rmr <- 0;
      if in_cs_or_exit p.region then t.occupied <- t.occupied - 1;
      p.region <- Event.Remainder);
    t.events <- t.events + 1

  let of_trace ~nprocs trace =
    let t = create ~nprocs in
    Trace.iter (fun e -> feed t ~pid:e.Event.pid e.Event.body) trace;
    t

  let events_seen t = t.events

  let sample_of t pid which =
    match find_pstate t pid with
    | None -> zero
    | Some p -> acc_sample (which p)

  let contention_free t ~pid = sample_of t pid (fun p -> p.cf)
  let per_process t = Array.init t.o_nprocs (fun pid -> sample_of t pid (fun p -> p.total))
  let process_total t ~pid = sample_of t pid (fun p -> p.total)
  let wc_entries t = List.rev t.entries
  let wc_exits t = List.rev t.exits
  let recovery_paths t = List.rev t.recs
  let recovery_rmr t = List.rev t.rec_rmrs

  let remote t ~pid =
    match find_pstate t pid with Some p -> p.remote | None -> 0

  let remote_accesses t = Array.init t.o_nprocs (fun pid -> remote t ~pid)

  let touched t = List.init t.reg_of.Itbl.size (Array.get t.regs)

  let touched_count t = t.reg_of.Itbl.size
  let spawned t = t.proc_of.Itbl.size
end
