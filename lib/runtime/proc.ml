open Cfc_base

type _ Effect.t +=
  | E_read : Register.t -> int Effect.t
  | E_write : Register.t * int -> unit Effect.t
  | E_write_field : Register.t * int * int * int -> unit Effect.t
  | E_xchg : Register.t * int -> int Effect.t
  | E_cas : Register.t * int * int -> bool Effect.t
  | E_bit_op : Register.t * Ops.t -> int option Effect.t
  | E_region : Event.region -> unit Effect.t
  | E_pause : unit Effect.t
  | E_sleep : int -> unit Effect.t

exception Crashed

type suspension =
  | Done
  | Failed of exn
  | Read of Register.t * (int, suspension) Effect.Deep.continuation
  | Write of Register.t * int * (unit, suspension) Effect.Deep.continuation
  | Write_field of
      Register.t * int * int * int
      * (unit, suspension) Effect.Deep.continuation
  | Xchg of Register.t * int * (int, suspension) Effect.Deep.continuation
  | Cas of
      Register.t * int * int * (bool, suspension) Effect.Deep.continuation
  | Bit_op of
      Register.t * Ops.t * (int option, suspension) Effect.Deep.continuation
  | Region of Event.region * (unit, suspension) Effect.Deep.continuation
  | Pause of (unit, suspension) Effect.Deep.continuation
  | Sleep of int * (unit, suspension) Effect.Deep.continuation

let handler : (unit, suspension) Effect.Deep.handler =
  {
    retc = (fun () -> Done);
    exnc = (fun e -> Failed e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | E_read r ->
          Some
            (fun (k : (a, suspension) Effect.Deep.continuation) -> Read (r, k))
        | E_write (r, v) ->
          Some (fun (k : (a, suspension) Effect.Deep.continuation) ->
              Write (r, v, k))
        | E_write_field (r, index, width, v) ->
          Some (fun (k : (a, suspension) Effect.Deep.continuation) ->
              Write_field (r, index, width, v, k))
        | E_xchg (r, v) ->
          Some (fun (k : (a, suspension) Effect.Deep.continuation) ->
              Xchg (r, v, k))
        | E_cas (r, expected, v) ->
          Some (fun (k : (a, suspension) Effect.Deep.continuation) ->
              Cas (r, expected, v, k))
        | E_bit_op (r, op) ->
          Some (fun (k : (a, suspension) Effect.Deep.continuation) ->
              Bit_op (r, op, k))
        | E_region reg ->
          Some (fun (k : (a, suspension) Effect.Deep.continuation) ->
              Region (reg, k))
        | E_pause ->
          Some
            (fun (k : (a, suspension) Effect.Deep.continuation) -> Pause k)
        | E_sleep d ->
          Some (fun (k : (a, suspension) Effect.Deep.continuation) ->
              Sleep (d, k))
        | _ -> None);
  }

let start f = Effect.Deep.match_with f () handler

(* Set while this domain's scheduler rebuilds a suspension: the replayed
   prefix's region changes were recorded when they first happened, so
   they are skipped rather than performed and absorbed. *)
let rebuilding_key = Domain.DLS.new_key (fun () -> ref false)
let rebuilding () = Domain.DLS.get rebuilding_key

let region r =
  if not !(Domain.DLS.get rebuilding_key) then Effect.perform (E_region r)
let decide v = region (Event.Decided v)
let sleep d = Effect.perform (E_sleep d)
