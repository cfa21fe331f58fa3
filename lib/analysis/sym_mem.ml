open Cfc_base
open Cfc_runtime

type op =
  | O_read
  | O_write
  | O_field of int * int
  | O_xchg
  | O_cas of bool
  | O_bit of Ops.t

type step = {
  s_index : int;
  s_reg : Register.t;
  s_op : op;
  s_value : int;
  s_post : int;
  s_write : bool;
  s_injected : bool;
}

let op_class = function
  | O_read -> "read"
  | O_write -> "write"
  | O_field _ -> "write-field"
  | O_xchg -> "xchg"
  | O_cas _ -> "cas"
  | O_bit b -> "bit:" ^ Ops.to_string b

let step_sig s = (s.s_reg.Register.id, op_class s.s_op)

type cut_reason = Budget | Spin

exception Cut of cut_reason

type ctx = {
  arena : Memory.t;
  max_steps : int;
  max_period : int;
  mutable pending : (int * int) list;
  mutable steps_rev : step list;
  mutable nsteps : int;
  mutable recording : bool;
  mutable alts_rev : (int * int) list;
  mutable injected_now : bool;
  mutable spin : step list option;
}

let exhaustive_width_limit = 4

let candidate_values ~width =
  if width <= exhaustive_width_limit then List.init (1 lsl width) Fun.id
  else
    let top = if width >= 62 then max_int else (1 lsl width) - 1 in
    [ 0; 1; 2; top ]

let create ?(max_steps = 2000) ?(max_period = 8) ?(plan = []) () =
  let rec increasing = function
    | (i, _) :: ((j, _) :: _ as rest) ->
      if i >= j then invalid_arg "Sym_mem.create: plan indices not increasing";
      increasing rest
    | [ _ ] | [] -> ()
  in
  increasing plan;
  {
    arena = Memory.create ();
    max_steps;
    max_period;
    pending = plan;
    steps_rev = [];
    nsteps = 0;
    recording = false;
    alts_rev = [];
    injected_now = false;
    spin = None;
  }

let arena t = t.arena
let start_recording t = t.recording <- true
let steps t = List.rev t.steps_rev
let spin_cycle t = t.spin
let alternatives t = List.rev t.alts_rev

(* Bookkeeping shared by every recorded access: budget, and the
   injection of an adversarial pre-value.  Returns [true] when the
   access is to be recorded (i.e. we are past [start_recording]). *)
let pre_access t r =
  if not t.recording then false
  else begin
    if t.nsteps >= t.max_steps then raise (Cut Budget);
    let i = t.nsteps in
    (match t.pending with
    | (j, v) :: rest when j = i ->
      Register.restore r v;
      t.pending <- rest;
      t.injected_now <- true
    | _ -> t.injected_now <- false);
    true
  end

(* Run the semantic operation; a raise (width or model violation) still
   consumes the access index. *)
let guarded t f =
  try f ()
  with
  | Cut _ as e -> raise e
  | e ->
    t.nsteps <- t.nsteps + 1;
    raise e

let alts_for r op value =
  match op with
  | O_read | O_xchg | O_cas _ ->
    List.filter
      (fun v -> v <> value)
      (candidate_values ~width:r.Register.width)
  | O_bit b when Ops.returns_value b -> [ 1 - value ]
  | O_bit _ | O_write | O_field _ -> []

(* Busy-wait recognition: the last [3p] accesses are three identical
   repetitions of a length-[p] pattern of (register, op, value).  A
   deterministic solo process whose observations repeat is looping; one
   period is kept as the cycle. *)
let check_spin t =
  let same a b =
    a.s_reg.Register.id = b.s_reg.Register.id
    && a.s_op = b.s_op && a.s_value = b.s_value
  in
  let rec take k = function
    | _ when k = 0 -> Some []
    | [] -> None
    | x :: rest -> (
      match take (k - 1) rest with None -> None | Some l -> Some (x :: l))
  in
  let rec try_period p =
    if p > t.max_period then ()
    else
      match take (3 * p) t.steps_rev with
      | None -> ()
      | Some window ->
        let arr = Array.of_list window in
        let periodic = ref true in
        for k = 0 to (2 * p) - 1 do
          if not (same arr.(k) arr.(k + p)) then periodic := false
        done;
        if !periodic then begin
          t.spin <- Some (List.rev (List.filteri (fun i _ -> i < p) window));
          raise (Cut Spin)
        end
        else try_period (p + 1)
  in
  try_period 1

let record t r op value ~write =
  let i = t.nsteps in
  t.nsteps <- i + 1;
  let st =
    {
      s_index = i;
      s_reg = r;
      s_op = op;
      s_value = value;
      s_post = r.Register.value;
      s_write = write;
      s_injected = t.injected_now;
    }
  in
  t.steps_rev <- st :: t.steps_rev;
  List.iter (fun v -> t.alts_rev <- (i, v) :: t.alts_rev) (alts_for r op value);
  check_spin t

let mem t : Mem_intf.mem =
  (module struct
    type reg = Register.t

    let alloc ?name ~width ~init () = Memory.alloc ?name ~width ~init t.arena

    let alloc_bit ?name ~model ~init () =
      Memory.alloc ?name ~model ~width:1 ~init t.arena

    let alloc_array ?name ~width ~init k =
      Memory.alloc_array ?name ~width ~init t.arena k

    let alloc_bit_array ?name ~model ~init k =
      Memory.alloc_array ?name ~model ~width:1 t.arena ~init k

    let read r =
      if pre_access t r then begin
        let v = guarded t (fun () -> Register.read r) in
        record t r O_read v ~write:false;
        v
      end
      else Register.read r

    let write r v =
      if pre_access t r then begin
        guarded t (fun () -> Register.write r v);
        record t r O_write v ~write:true
      end
      else Register.write r v

    let write_field r ~index ~width v =
      if pre_access t r then begin
        guarded t (fun () -> Register.write_field r ~index ~width v);
        record t r (O_field (index, width)) v ~write:true
      end
      else Register.write_field r ~index ~width v

    let bit_op r op =
      if pre_access t r then begin
        let pre = r.Register.value in
        let ret = guarded t (fun () -> Register.bit_op r op) in
        let value = match ret with Some old -> old | None -> pre in
        record t r (O_bit op) value ~write:(Ops.writes op);
        ret
      end
      else Register.bit_op r op

    let fetch_and_store r v =
      if pre_access t r then begin
        let old = guarded t (fun () -> Register.fetch_and_store r v) in
        record t r O_xchg old ~write:true;
        old
      end
      else Register.fetch_and_store r v

    let compare_and_set r ~expected v =
      if pre_access t r then begin
        let pre = r.Register.value in
        let ok = guarded t (fun () -> Register.compare_and_set r ~expected v) in
        record t r (O_cas ok) pre ~write:ok;
        ok
      end
      else Register.compare_and_set r ~expected v

    let pause () = ()
  end : Mem_intf.MEM)
