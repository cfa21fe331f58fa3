type t = { mutable events : Event.t array; mutable len : int }

let create () = { events = Array.make 64 { Event.seq = 0; pid = 0; body = Event.Crash }; len = 0 }

let ensure t =
  if t.len = Array.length t.events then begin
    let bigger = Array.make (2 * t.len) t.events.(0) in
    Array.blit t.events 0 bigger 0 t.len;
    t.events <- bigger
  end

let record t ~pid body =
  ensure t;
  let e = { Event.seq = t.len; pid; body } in
  t.events.(t.len) <- e;
  t.len <- t.len + 1;
  e

let length t = t.len

let truncate t n =
  if n < 0 || n > t.len then invalid_arg "Trace.truncate";
  t.len <- n

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Trace.get";
  t.events.(i)

let iter f t =
  for i = 0 to t.len - 1 do
    f t.events.(i)
  done

let fold f acc t =
  let acc = ref acc in
  iter (fun e -> acc := f !acc e) t;
  !acc

let to_list t = List.init t.len (fun i -> t.events.(i))

(* Region bookkeeping mirrors the scheduler's: a [Recover] restarts the
   process from the top with fresh local state, so the new incarnation
   begins in [Remainder] (Scheduler.recover sets exactly that).  A bare
   [Crash] leaves the stale region in place on purpose — a process that
   fail-stopped inside its critical section is still an occupant as far
   as trace-level occupancy is concerned (the strong-occupancy reading
   of Spec.mutual_exclusion_recoverable). *)
let fold_states ~nprocs f acc t =
  let regions = Array.make nprocs Event.Remainder in
  let acc = ref acc in
  iter
    (fun e ->
      acc := f !acc regions e;
      match e.Event.body with
      | Event.Region_change r -> regions.(e.Event.pid) <- r
      | Event.Recover -> regions.(e.Event.pid) <- Event.Remainder
      | Event.Access _ | Event.Crash -> ())
    t;
  !acc

let regions_at t i ~nprocs =
  let regions = Array.make nprocs Event.Remainder in
  for j = 0 to min i t.len - 1 do
    match t.events.(j).Event.body with
    | Event.Region_change r -> regions.(t.events.(j).Event.pid) <- r
    | Event.Recover -> regions.(t.events.(j).Event.pid) <- Event.Remainder
    | Event.Access _ | Event.Crash -> ()
  done;
  regions

let last ?pid n t =
  let keep e = match pid with None -> true | Some p -> e.Event.pid = p in
  let acc = ref [] in
  let i = ref (t.len - 1) in
  while List.length !acc < n && !i >= 0 do
    if keep t.events.(!i) then acc := t.events.(!i) :: !acc;
    decr i
  done;
  !acc

let pp ppf t =
  iter (fun e -> Format.fprintf ppf "%a@." Event.pp e) t
