(* The paper's confirmation rule, applied from outside the replicas: a
   serial is confirmed when f+1 replicas' ledgers have executed it, and its
   requests are the batches of the datablocks its BFTblock links. Both
   planes poll it: the TCP workloads once per loop turn, the simulator
   every simulated millisecond. *)

type t = {
  f1 : int;
  last : int array;                (* per replica: highest serial seen executed *)
  counts : (int, int) Hashtbl.t;   (* serial -> replicas that executed it *)
  mutable serials : int;           (* serials executed by f+1 replicas *)
  mutable datablocks : int;        (* datablocks those serials linked *)
  mutable missing : int;           (* blocks/datablocks already pruned everywhere *)
}

(* Starts at the replicas' current frontier: serials executed before are
   not tracked. *)
let create cfg replicas =
  { f1 = Core.Config.max_faulty cfg + 1;
    last = Array.map (fun r -> Core.Ledger.executed_up_to (Core.Replica.ledger r)) replicas;
    counts = Hashtbl.create 1024;
    serials = 0;
    datablocks = 0;
    missing = 0 }

(* Looks a value up in replica [first]'s state, then in everyone else's:
   a checkpoint may have pruned it from the replica that just executed. *)
let find_any replicas first f =
  match f replicas.(first) with
  | Some _ as found -> found
  | None -> Array.fold_left (fun acc r -> match acc with Some _ -> acc | None -> f r) None replicas

let confirm_serial t replicas r sn on_batch =
  match find_any replicas r (fun rep -> Core.Ledger.get (Core.Replica.ledger rep) sn) with
  | None -> t.missing <- t.missing + 1
  | Some block ->
    t.serials <- t.serials + 1;
    List.iter
      (fun h ->
        match find_any replicas r (fun rep -> Core.Datablock_pool.find (Core.Replica.pool rep) h) with
        | None -> t.missing <- t.missing + 1
        | Some db ->
          t.datablocks <- t.datablocks + 1;
          List.iter on_batch db.Core.Datablock.batches)
      block.Core.Bftblock.links

(* Counts every serial executed since the last poll; [on_batch] sees each
   batch of a serial the moment that serial reaches f+1 executions. *)
let poll t replicas on_batch =
  let n = Array.length replicas in
  Array.iteri
    (fun r rep ->
      let executed = Core.Ledger.executed_up_to (Core.Replica.ledger rep) in
      while t.last.(r) < executed do
        let sn = t.last.(r) + 1 in
        t.last.(r) <- sn;
        let c = 1 + Option.value ~default:0 (Hashtbl.find_opt t.counts sn) in
        if c = n then Hashtbl.remove t.counts sn else Hashtbl.replace t.counts sn c;
        if c = t.f1 then confirm_serial t replicas r sn on_batch
      done)
    replicas
