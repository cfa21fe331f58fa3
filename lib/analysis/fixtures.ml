open Cfc_base
open Cfc_mutex

(* A working test-and-set lock, except that the lock register is three
   bits wide while the declared atomicity claims single-bit accesses.
   Solo cost (2 steps, 1 register) and the spin structure are ordinary;
   the only defect is the width lie. *)
module Wide_spin : Mutex_intf.ALG = struct
  let name = "fixture-wide-spin"
  let supports (p : Mutex_intf.params) = p.n >= 1
  let atomicity _ = 1
  let predicted_cf_steps _ = Some 2
  let predicted_cf_registers _ = Some 1
  let recovery _ = None

  module Make (M : Mem_intf.MEM) = struct
    type t = { flag : M.reg }

    let create (_ : Mutex_intf.params) =
      { flag = M.alloc ~name:"ws.flag" ~width:3 ~init:0 () }

    let lock t ~me =
      ignore me;
      while M.fetch_and_store t.flag 1 <> 0 do
        M.pause ()
      done

    let unlock t ~me =
      ignore me;
      M.write t.flag 0
  end
end

(* A lock that tolerates a width violation: the first entry access writes
   2 into a 1-bit register and swallows the resulting Invalid_argument.
   The failed write leaves no event in the trace, so the model checker
   can rebuild this process only because the scheduler logs the failure
   and raises it again at the same call.  (Discontinuing the process is
   no problem: that raises [Proc.Crashed], which this handler does not
   catch.) *)
module Swallows : Mutex_intf.ALG = struct
  let name = "fixture-swallows"
  let supports (p : Mutex_intf.params) = p.n >= 1
  let atomicity _ = 1
  let predicted_cf_steps _ = Some 2
  let predicted_cf_registers _ = Some 1
  let recovery _ = None

  module Make (M : Mem_intf.MEM) = struct
    type t = { bit : M.reg; narrow : M.reg }

    let create (_ : Mutex_intf.params) =
      {
        bit = M.alloc ~name:"sw.bit" ~width:1 ~init:0 ();
        narrow = M.alloc ~name:"sw.narrow" ~width:1 ~init:0 ();
      }

    let lock t ~me =
      ignore me;
      (try M.write t.narrow 2 with Invalid_argument _ -> ());
      while M.fetch_and_store t.bit 1 <> 0 do
        M.pause ()
      done

    let unlock t ~me =
      ignore me;
      M.write t.bit 0
  end
end

(* The lost-wakeup lock: a correct test-and-set core whose release is
   guarded by an owner register that every entry blind-writes with its
   own id.  Solo it is indistinguishable from a guarded TAS (the guard
   read always succeeds), and mutual exclusion even holds under
   contention — but a competitor's entry can overwrite [owner] between
   the holder's write and its release read, so the holder skips the
   [flag := 0] wake-up and every spinner starves.  Exactly the harmful
   race the solo analyzer cannot see and the product passes must. *)
module Lost_wakeup : Mutex_intf.ALG = struct
  let name = "fixture-lost-wakeup"
  let supports (p : Mutex_intf.params) = p.n >= 1
  let atomicity (p : Mutex_intf.params) = Ixmath.bits_needed p.n
  let predicted_cf_steps _ = Some 4
  let predicted_cf_registers _ = Some 2
  let recovery _ = None

  module Make (M : Mem_intf.MEM) = struct
    type t = { owner : M.reg; flag : M.reg }

    let create (p : Mutex_intf.params) =
      {
        owner =
          M.alloc ~name:"lw.owner" ~width:(Ixmath.bits_needed p.n) ~init:0 ();
        flag = M.alloc ~name:"lw.flag" ~width:1 ~init:0 ();
      }

    let lock t ~me =
      M.write t.owner (me + 1);
      while M.fetch_and_store t.flag 1 <> 0 do
        M.pause ()
      done

    let unlock t ~me = if M.read t.owner = me + 1 then M.write t.flag 0
  end
end

(* The benign twin: byte-identical product structure, except every entry
   writes the {e same} constant into [owner], so the write/write race on
   it cannot change any release decision — the guard read always sees 1
   and the wake-up is unconditional in effect.  Must pass the race
   passes clean. *)
module Lost_wakeup_benign : Mutex_intf.ALG = struct
  let name = "fixture-lost-wakeup-benign"
  let supports (p : Mutex_intf.params) = p.n >= 1
  let atomicity (p : Mutex_intf.params) = Ixmath.bits_needed p.n
  let predicted_cf_steps _ = Some 4
  let predicted_cf_registers _ = Some 2
  let recovery _ = None

  module Make (M : Mem_intf.MEM) = struct
    type t = { owner : M.reg; flag : M.reg }

    let create (p : Mutex_intf.params) =
      {
        owner =
          M.alloc ~name:"lwb.owner" ~width:(Ixmath.bits_needed p.n) ~init:0 ();
        flag = M.alloc ~name:"lwb.flag" ~width:1 ~init:0 ();
      }

    let lock t ~me =
      ignore me;
      M.write t.owner 1;
      while M.fetch_and_store t.flag 1 <> 0 do
        M.pause ()
      done

    let unlock t ~me =
      ignore me;
      if M.read t.owner = 1 then M.write t.flag 0
  end
end

let wide_spin : Registry.alg = (module Wide_spin)
let swallows : Registry.alg = (module Swallows)
let lost_wakeup : Registry.alg = (module Lost_wakeup)
let lost_wakeup_benign : Registry.alg = (module Lost_wakeup_benign)

let subjects () =
  List.filter_map Fun.id
    [
      Subjects.of_mutex ~n:2 wide_spin;
      Subjects.of_mutex ~n:2 swallows;
      Subjects.of_mutex ~n:2 lost_wakeup;
      Subjects.of_mutex ~n:2 lost_wakeup_benign;
    ]
