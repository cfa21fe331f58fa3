open Cfc_core

let value_width = 32
let value_mask = (1 lsl value_width) - 1

type store = { get : int -> int -> int; set : int -> int -> int -> unit }

(* [kinds.(b)] counts reads, updates, scans and rmws, in that order. *)
type tally = { kinds : int array array; bumps : int array; mutable torn : int }

type shard_ops = { reads : int; updates : int; scans : int; rmws : int }

module Make (M : Cfc_base.Mem_intf.MEM) (A : Cfc_mutex.Mutex_intf.ALG) = struct
  module L = A.Make (M)

  type t = {
    locks : L.t array;
    store : store;
    versions : M.reg array;
    nslots : int;
    tallies : tally array;
  }

  let create p ~buckets ~keys ~writers store =
    let locks = Array.init buckets (fun _ -> L.create p) in
    let nslots = (keys + buckets - 1) / buckets in
    let store = store ~slots:nslots in
    { locks; store; nslots;
      versions =
        M.alloc_array ~name:"kv.ver" ~width:value_width ~init:0 buckets;
      tallies =
        Array.init writers (fun _ ->
            { kinds = Array.make_matrix buckets 4 0;
              bumps = Array.make buckets 0; torn = 0 }) }

  let count tally b k = tally.kinds.(b).(k) <- tally.kinds.(b).(k) + 1

  (* The lost-update witness: deliberately non-atomic. *)
  let bump t tally b =
    tally.bumps.(b) <- tally.bumps.(b) + 1;
    let v = M.read t.versions.(b) in
    M.write t.versions.(b) ((v + 1) land value_mask)

  let client t rig ~writer ~me ~route stream ~ops =
    let nb = Array.length t.locks in
    let tally = t.tallies.(writer) in
    (* The running op's index, for the payload an update writes. *)
    let i = ref 0 in
    (* Built once per client, so an operation allocates no closure. *)
    let critical op =
      let key = Ycsb.key_of op in
      let b = key mod nb and slot = key / nb in
      match op with
      | Ycsb.Read _ ->
        count tally b 0;
        ignore (Sys.opaque_identity (t.store.get b slot))
      | Ycsb.Update _ ->
        count tally b 1;
        t.store.set b slot (((me lsl 16) lor (!i land 0xffff)) land value_mask);
        bump t tally b
      | Ycsb.Scan (_, len) ->
        count tally b 2;
        let v0 = M.read t.versions.(b) in
        let acc = ref 0 in
        for j = 0 to len - 1 do
          acc := !acc + t.store.get b ((slot + j) mod t.nslots)
        done;
        ignore (Sys.opaque_identity !acc);
        if M.read t.versions.(b) <> v0 then tally.torn <- tally.torn + 1
      | Ycsb.Rmw _ ->
        count tally b 3;
        t.store.set b slot ((t.store.get b slot + 1) land value_mask);
        bump t tally b
    in
    fun () ->
      for k = 1 to ops do
        i := k;
        let op = Ycsb.next stream in
        let b = Ycsb.key_of op mod nb in
        route me b;
        Client.cycle rig ~lock:L.lock ~unlock:L.unlock t.locks.(b) ~me critical
          op
      done

  let sum t f = Array.fold_left (fun acc tl -> acc + f tl) 0 t.tallies

  let shard_ops t ~bucket =
    let kind k = sum t (fun tl -> tl.kinds.(bucket).(k)) in
    { reads = kind 0; updates = kind 1; scans = kind 2; rmws = kind 3 }

  let torn_scans t = sum t (fun tl -> tl.torn)

  let lost_updates t ~final =
    let lost = ref 0 in
    Array.iteri
      (fun b r -> lost := !lost + (sum t (fun tl -> tl.bumps.(b)) - final r))
      t.versions;
    !lost
end
