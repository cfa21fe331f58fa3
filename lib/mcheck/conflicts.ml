(* Dynamic conflict collection: a tiny accumulator meant to be plugged
   into [Explore]'s [observe_access] hook.  It records the set of
   distinct (pid, register, op class) access triples the exploration
   executed — the hook fires once per access per node, so the table
   dedups — and derives from it the cross-process conflict pairs the
   search actually exercised.  The static analyzer's race enumeration
   (Cfc_analysis.Product) must cover every one of these pairs; the
   test battery pins that inclusion. *)

type access = {
  pid : int;
  rid : int;
  reg : string;
  cls : string;
  is_write : bool;
}

(* keyed (pid, register id, op class) *)
type t = (int * int * string, access) Hashtbl.t

let create () : t = Hashtbl.create 64

let observer t ~pid ~reg ~kind =
  let cls = Cfc_analysis.Analyze.op_class kind in
  let key = (pid, reg.Cfc_runtime.Register.id, cls) in
  if not (Hashtbl.mem t key) then
    Hashtbl.add t key
      { pid;
        rid = reg.Cfc_runtime.Register.id;
        reg = reg.Cfc_runtime.Register.name;
        cls;
        is_write = Cfc_runtime.Event.is_write kind }

let accesses t =
  Hashtbl.fold (fun _ a acc -> a :: acc) t []
  |> List.sort (fun a b -> compare (a.pid, a.rid, a.cls) (b.pid, b.rid, b.cls))

type pair = {
  rid : int;
  reg : string;
  pid_a : int;
  cls_a : string;
  pid_b : int;
  cls_b : string;
}

(* Cross-process pairs on the same register with at least one writing
   side: exactly the "conflict" of the independence relation, projected
   to op classes.  Unordered — each pair appears once, with
   [pid_a < pid_b]. *)
let pairs t =
  let acc = accesses t in
  List.concat_map
    (fun a ->
      List.filter_map
        (fun b ->
          if a.pid < b.pid && a.rid = b.rid && (a.is_write || b.is_write)
          then
            Some
              { rid = a.rid; reg = a.reg; pid_a = a.pid; cls_a = a.cls;
                pid_b = b.pid; cls_b = b.cls }
          else None)
        acc)
    acc
  |> List.sort_uniq compare
