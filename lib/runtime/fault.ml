type kind = Crash | Recover

type point = { step : int; pid : int; kind : kind }

type plan = point list

let crash ~step ~pid = { step; pid; kind = Crash }
let recover ~step ~pid = { step; pid; kind = Recover }
let of_crash_at l = List.map (fun (step, pid) -> crash ~step ~pid) l

let pp_kind ppf = function
  | Crash -> Format.pp_print_string ppf "crash"
  | Recover -> Format.pp_print_string ppf "recover"

let pp_point ppf p =
  Format.fprintf ppf "%a p%d @@ step %d" pp_kind p.kind p.pid p.step

let pp_plan ppf plan =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       pp_point)
    plan

let invalidf fmt = Format.kasprintf invalid_arg fmt

(* Sort by step, stably: two faults at the same step are applied in plan
   order, so [crash @ k; recover @ k] is a legal atomic crash–restart. *)
let sort plan = List.stable_sort (fun a b -> compare a.step b.step) plan

let validate ~nprocs plan =
  List.iter
    (fun p ->
      if p.pid < 0 || p.pid >= nprocs then
        invalidf "Fault.validate: %a: pid out of range (nprocs = %d)"
          pp_point p nprocs;
      if p.step < 0 then
        invalidf "Fault.validate: %a: negative step index" pp_point p)
    plan;
  (* Exact duplicates first: they would also fail the alternation check
     below, but deserve a more direct message. *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun p ->
      if Hashtbl.mem seen (p.step, p.pid, p.kind) then
        invalidf "Fault.validate: duplicate fault point %a" pp_point p;
      Hashtbl.add seen (p.step, p.pid, p.kind) ())
    plan;
  let plan = sort plan in
  (* Per pid, faults must alternate crash / recover starting with a
     crash: you cannot crash a process that is already crashed, nor
     recover one that is not. *)
  let crashed = Array.make nprocs false in
  List.iter
    (fun p ->
      match p.kind with
      | Crash ->
        if crashed.(p.pid) then
          invalidf
            "Fault.validate: %a: p%d is already crashed at that point \
             (missing an intervening recover)"
            pp_point p p.pid;
        crashed.(p.pid) <- true
      | Recover ->
        if not crashed.(p.pid) then
          invalidf
            "Fault.validate: %a: p%d is not crashed at that point \
             (recover must follow a crash)"
            pp_point p p.pid;
        crashed.(p.pid) <- false)
    plan;
  plan

let chaos ~seed ~nprocs ~pairs ~horizon =
  if nprocs <= 0 then invalid_arg "Fault.chaos: nprocs must be positive";
  if horizon <= 0 then invalid_arg "Fault.chaos: horizon must be positive";
  if pairs < 0 then invalid_arg "Fault.chaos: pairs must be non-negative";
  let st = Random.State.make [| seed; nprocs; pairs; horizon |] in
  (* Per pid, fault points are generated left to right, so alternation
     holds by construction and [validate] always accepts the result. *)
  let next = Array.make nprocs 0 in
  let span = max 1 (horizon / max 1 pairs) in
  let plan = ref [] in
  for _ = 1 to pairs do
    let pid = Random.State.int st nprocs in
    let c = next.(pid) + Random.State.int st span in
    let r = c + Random.State.int st span in
    (* Strictly past [r]: with many pairs per pid the span draws can be
       0, and a cursor left at [r] would let the next pair duplicate a
       fault point (which [validate] rejects). *)
    next.(pid) <- r + 1;
    plan := recover ~step:r ~pid :: crash ~step:c ~pid :: !plan
  done;
  validate ~nprocs (List.rev !plan)

type 'r turn = Ran | Idle of 'r | Stop of 'r

type timeline = { mutable pending : plan; mutable clock : int }

let timeline ~nprocs plan = { pending = validate ~nprocs plan; clock = 0 }
let clock tl = tl.clock

let next_due tl = match tl.pending with f :: _ -> f.step | [] -> max_int
let skip tl k = tl.clock <- tl.clock + k

let run tl ~crash ~recover turn =
  let rec loop () =
    match tl.pending with
    | f :: rest when f.step <= tl.clock ->
      (match f.kind with Crash -> crash f.pid | Recover -> recover f.pid);
      tl.pending <- rest;
      loop ()
    | _ -> (
      match turn tl.clock with
      | Ran ->
        tl.clock <- tl.clock + 1;
        loop ()
      | Stop r -> r
      | Idle r -> (
        (* Every due point was applied above, so the next one is strictly
           ahead: jumping the clock to it makes progress. *)
        match tl.pending with
        | [] -> r
        | f :: _ ->
          tl.clock <- max tl.clock f.step;
          loop ()))
  in
  loop ()
