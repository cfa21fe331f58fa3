open Cfc_base

type home = ..
type home += Unhomed

type t = {
  id : int;
  name : string;
  width : int;
  model : Model.t option;
  init : int;
  mutable value : int;
  home : home;
}

let fits ~width v = v >= 0 && (width >= 62 || v < 1 lsl width)

(* Every write-class operation funnels its operand through this check, so
   an out-of-width value is rejected at access time with a message naming
   the operation, the register and its declared width — the atomicity
   parameter [l] is enforced on every step, not just at allocation. *)
let check_fits r ~op v =
  if not (fits ~width:r.width v) then
    invalid_arg
      (Printf.sprintf
         "register %s: %s value %d does not fit in declared width %d bits"
         r.name op v r.width)

let make_in ~home ~id ~name ~width ~model ~init =
  if width < 1 || width > 62 then
    invalid_arg (Printf.sprintf "Register.make %s: width %d" name width);
  if not (fits ~width init) then
    invalid_arg
      (Printf.sprintf "Register.make %s: init %d does not fit in %d bits"
         name init width);
  (match model with
  | Some _ when width <> 1 ->
    invalid_arg
      (Printf.sprintf "Register.make %s: operation models apply to bits only"
         name)
  | _ -> ());
  { id; name; width; model; init; value = init; home }

let make = make_in ~home:Unhomed

let require_op r op =
  match r.model with
  | None -> ()
  | Some m ->
    if not (Model.mem op m) then
      invalid_arg
        (Printf.sprintf "register %s: operation %s not in model %s" r.name
           (Ops.to_string op) (Model.to_string m))

let read r =
  require_op r Ops.Read;
  r.value

let write r v =
  check_fits r ~op:"write" v;
  (match r.model with
  | None -> ()
  | Some _ -> require_op r (if v = 0 then Ops.Write_0 else Ops.Write_1));
  r.value <- v

let bit_op r op =
  if r.width <> 1 then
    invalid_arg
      (Printf.sprintf "register %s: bit operations need a 1-bit register"
         r.name);
  require_op r op;
  let v', ret = Ops.apply op r.value in
  r.value <- v';
  ret

let write_field r ~index ~width v =
  (match r.model with
  | Some _ ->
    invalid_arg
      (Printf.sprintf "register %s: write_field on a model-restricted bit"
         r.name)
  | None -> ());
  if width < 1 || index < 0 || (index + 1) * width > r.width then
    invalid_arg
      (Printf.sprintf "register %s: field %d of width %d out of range" r.name
         index width);
  if not (fits ~width v) then
    invalid_arg
      (Printf.sprintf "register %s: field value %d does not fit in %d bits"
         r.name v width);
  let shift = index * width in
  let mask = ((1 lsl width) - 1) lsl shift in
  r.value <- r.value land lnot mask lor (v lsl shift)

let require_plain r what =
  match r.model with
  | Some _ ->
    invalid_arg
      (Printf.sprintf "register %s: %s on a model-restricted bit" r.name what)
  | None -> ()

let fetch_and_store r v =
  require_plain r "fetch_and_store";
  check_fits r ~op:"fetch_and_store" v;
  let old = r.value in
  r.value <- v;
  old

let compare_and_set r ~expected v =
  require_plain r "compare_and_set";
  check_fits r ~op:"compare_and_set" v;
  if r.value = expected then begin
    r.value <- v;
    true
  end
  else false

let reset r = r.value <- r.init

let restore r v = r.value <- v

let pp ppf r =
  Format.fprintf ppf "%s#%d[w=%d]=%d" r.name r.id r.width r.value
