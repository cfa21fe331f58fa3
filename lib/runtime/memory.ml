(* The arena's cursor, read by {!Sim_mem} on every access.  Two
   protocols use it, never at once.

   Replay: [remaining] counts the access-or-pause calls still to answer
   from the recording, [answers] holds the recorded access answers not
   yet taken, oldest first.  Outside a rebuild [remaining = 0] and
   [answers = []].

   Run-ahead: [grant] counts the accesses the running process may still
   perform inline, each reported to [tap].  Outside a granted step the
   grant is 0 and the tap [None], so structural equality on a register,
   which reaches this cursor through [Register.home], meets no
   closure. *)
type tap = Register.t -> Event.access_kind -> unit

type cursor = {
  mutable remaining : int;
  mutable answers : Event.access_kind list;
  mutable grant : int;
  mutable tap : tap option;
}

type Register.home += Arena of cursor

type t = {
  mutable regs : Register.t list (* reversed *);
  mutable next : int;
  mutable regs_arr : Register.t array;
      (* cache of [regs] (same reverse order) for the hot snapshot paths;
         invalidated by [alloc], rebuilt on demand *)
  cursor : cursor;
  home : Register.home;  (* [Arena cursor], shared by every register *)
}

let create () =
  let cursor = { remaining = 0; answers = []; grant = 0; tap = None } in
  { regs = []; next = 0; regs_arr = [||]; cursor; home = Arena cursor }

let cursor t = t.cursor

let replay_start c ~calls answers =
  c.remaining <- calls;
  c.answers <- answers

let[@inline] replaying c = c.remaining > 0
let[@inline] replay_pending c = if c.remaining = 0 then [] else c.answers

let replay_take c =
  (match c.answers with _ :: tl -> c.answers <- tl | [] -> ());
  c.remaining <- c.remaining - 1

let replay_skip c = c.remaining <- c.remaining - 1

let replay_stop c =
  let all_taken = c.answers = [] in
  c.remaining <- 0;
  c.answers <- [];
  all_taken

let grant c n tap =
  c.grant <- n;
  c.tap <- Some tap

let ran_ahead c r kind =
  c.grant <- c.grant - 1;
  match c.tap with Some tap -> tap r kind | None -> ()

let revoke c =
  c.grant <- 0;
  c.tap <- None

let alloc ?name ?model ~width ~init t =
  let id = t.next in
  let name = match name with Some n -> n | None -> Printf.sprintf "r%d" id in
  let r = Register.make_in ~home:t.home ~id ~name ~width ~model ~init in
  t.next <- id + 1;
  t.regs <- r :: t.regs;
  t.regs_arr <- [||];
  r

let alloc_array ?name ?model ~width ~init t k =
  let base = match name with Some n -> n | None -> "a" in
  Array.init k (fun i ->
      alloc ~name:(Printf.sprintf "%s[%d]" base i) ?model ~width ~init t)

let registers t = List.rev t.regs
let size t = t.next

let fold f acc t = List.fold_left f acc t.regs

let max_width t = fold (fun acc r -> max acc r.Register.width) 0 t

let reset t = List.iter Register.reset t.regs

let regs_arr t =
  if Array.length t.regs_arr <> t.next then t.regs_arr <- Array.of_list t.regs;
  t.regs_arr

(* Values in reverse allocation order — [restore_values] consumes the
   same order, so the two stay consistent without materializing the
   forward list. *)
let values t =
  let regs = regs_arr t in
  let a = Array.make t.next 0 in
  for i = 0 to t.next - 1 do
    a.(i) <- regs.(i).Register.value
  done;
  a

let restore_values t a =
  if Array.length a <> t.next then invalid_arg "Memory.restore_values";
  let regs = regs_arr t in
  for i = 0 to t.next - 1 do
    Register.restore regs.(i) a.(i)
  done

let value_changed t ~before (r : Register.t) =
  if Array.length before <> t.next then invalid_arg "Memory.value_changed";
  before.(t.next - 1 - r.Register.id) <> r.Register.value

let dump t =
  registers t
  |> List.map (fun r -> Printf.sprintf "%s=%d" r.Register.name r.Register.value)
  |> String.concat " "

let fingerprint t =
  List.fold_left
    (fun acc r -> (acc * 1000003) lxor r.Register.value)
    (Hashtbl.hash t.next) t.regs
