open Sim

type plane = {
  now : unit -> Sim_time.t;
  schedule : delay:Sim_time.span -> (unit -> unit) -> unit;
  platform : Net.Node_id.t -> Platform.t;
  ingress : dst:Net.Node_id.t -> size:int -> (unit -> unit) -> unit;
  set_down : Net.Node_id.t -> bool -> unit;
  is_down : Net.Node_id.t -> bool;
}

type spec = {
  cfg : Config.t;
  key_rng : Rng.t;
  byzantine : (Net.Node_id.t * Byzantine.t) list;
  load : float;
  tick : Sim_time.span;
  load_until : Sim_time.t option;
  resend : Sim_time.span option;
  horizon : Sim_time.t option;
  trace : Trace.t;
  obs : Obs.Registry.t option;
  on_confirm :
    at:Sim_time.t -> proposed:Sim_time.t option -> Datablock.t -> Workload.Request.t -> unit;
}

type t = {
  plane : plane;
  sp : spec;
  keys : (Crypto.Signature.public_key * Crypto.Signature.private_key) array;
  pks : Crypto.Signature.public_key array;
  tsetup : Crypto.Threshold.setup;
  tkeys : Crypto.Threshold.member_key array;
  strategies : Byzantine.t array;
  mutable replicas : Replica.t array;
  (* f+1 confirmation accounting; [propose_times] is keyed per serial
     and pruned with the tally's counts at each checkpoint. *)
  tally : Workload.Tally.t;
  propose_times : (int, Sim_time.t) Hashtbl.t;
  mutable first_vc_trigger : Sim_time.t option;
  mutable last_view_entry : Sim_time.t option;
  mutable view_changes : int;
  (* the client *)
  mutable gen : Workload.Generator.t option;
  (* Unconfirmed client batches ordered by next re-send deadline (ns key,
     batch id as tiebreak; the value carries the attempt count for the
     exponential backoff). A scan pops only the entries that are due;
     confirmed batches are dropped lazily when their deadline surfaces. *)
  resend_queue : (Workload.Request.t * int) Heap.t;
  (* client aggregates, bumped where they happen *)
  offered : Obs.Counter.t;
  resends : Obs.Counter.t;  (* re-send copies submitted *)
  rejected : Obs.Counter.t;
  mutable closed : bool;
}

let plane t = t.plane
let replicas t = t.replicas
let trace t = t.sp.trace
let tally t = t.tally
let confirmed t = Workload.Tally.confirmed t.tally
let rejected t = Obs.Counter.value t.rejected
let view_changes t = t.view_changes
let offered t = Obs.Counter.value t.offered

let all_confirmed t =
  match t.gen with
  | Some g -> List.for_all Workload.Request.is_confirmed (Workload.Generator.batches g)
  | None -> true

let honest_ids t =
  List.filter
    (fun id -> not (Byzantine.is_byzantine t.strategies.(id)))
    (List.init t.sp.cfg.Config.n Fun.id)

(* -- replica hooks ------------------------------------------------------ *)

(* The (f+1)-th execution of a serial is the client-visible confirmation
   instant (a valid client response needs f+1 identical acks, §4.1); the
   tally counts each batch once. *)
let on_f1_execution t ~sn dbs =
  let at = t.plane.now () in
  let proposed = Hashtbl.find_opt t.propose_times sn in
  List.iter
    (fun (db : Datablock.t) ->
      List.iter
        (fun b -> if Workload.Tally.confirm t.tally ~at b then t.sp.on_confirm ~at ~proposed db b)
        db.Datablock.batches)
    dbs

(* Checkpoint garbage collection: once the protocol's low watermark
   reaches [lw], no serial at or below it can produce a fresh (f+1)-th
   execution, so its counter and proposal time can go. Runs once per
   watermark value (n replicas report the same advance). *)
let prune_below t lw =
  if lw > Workload.Tally.pruned_below t.tally then begin
    Workload.Tally.prune_below t.tally lw;
    let stale =
      Hashtbl.fold (fun sn _ acc -> if sn <= lw then sn :: acc else acc) t.propose_times []
    in
    List.iter (Hashtbl.remove t.propose_times) stale
  end

let hooks t =
  { Replica.on_execute =
      (fun ~id:_ ~sn _block dbs ->
        if Workload.Tally.executed t.tally ~sn then on_f1_execution t ~sn dbs);
    on_view_change =
      (fun ~id:_ ~view ->
        t.view_changes <- max t.view_changes (view - 1);
        t.last_view_entry <- Some (t.plane.now ()));
    on_view_change_trigger =
      (fun ~id:_ ~abandoned:_ ->
        if t.first_vc_trigger = None then t.first_vc_trigger <- Some (t.plane.now ()));
    on_propose =
      (fun ~id:_ ~sn ~at ->
        if not (Hashtbl.mem t.propose_times sn) then Hashtbl.add t.propose_times sn at);
    on_checkpoint = (fun ~id:_ ~lw -> prune_below t lw) }

(* -- checks ------------------------------------------------------------- *)

let executed t id = Ledger.executed_up_to (Replica.ledger t.replicas.(id))
let honest_up t = List.filter (fun id -> not (t.plane.is_down id)) (honest_ids t)

let safety_ok t =
  match List.map (fun id -> Replica.ledger t.replicas.(id)) (honest_ids t) with
  | [] -> true
  | first :: rest -> List.for_all (Ledger.agree first) rest

let converged t =
  match honest_up t with
  | [] -> true
  | first :: rest ->
    let hash = Replica.state_hash t.replicas.(first) in
    List.for_all
      (fun id ->
        executed t id = executed t first
        && Crypto.Hash.equal (Replica.state_hash t.replicas.(id)) hash)
      rest

let frontier t = List.fold_left (fun acc id -> max acc (executed t id)) 0 (honest_up t)

let max_view t =
  List.fold_left (fun acc id -> max acc (Replica.view t.replicas.(id))) 1 (honest_ids t)

let equivocations t =
  List.fold_left
    (fun acc id -> acc + List.length (Datablock_pool.equivocations (Replica.pool t.replicas.(id))))
    0 (honest_ids t)

let vc_trigger_to_entry t =
  match (t.first_vc_trigger, t.last_view_entry) with
  | Some a, Some b when Sim_time.compare b a > 0 -> Some (Sim_time.to_sec Sim_time.(b - a))
  | _ -> None

(* -- construction ------------------------------------------------------- *)

let create plane sp =
  let cfg = sp.cfg in
  let n = cfg.Config.n in
  let keys = Array.init n (fun _ -> Crypto.Signature.keygen sp.key_rng) in
  let tsetup, tkeys =
    Crypto.Threshold.keygen sp.key_rng ~threshold:(2 * cfg.Config.f) ~parties:n
  in
  let strategies = Array.make n Byzantine.Honest in
  List.iter (fun (id, s) -> strategies.(id) <- s) sp.byzantine;
  (* The client's and the tally's instruments; replicas register only
     in a caller's registry. *)
  let reg = match sp.obs with Some r -> r | None -> Obs.Registry.create () in
  let counter name help = Obs.Registry.counter reg ~help name in
  let t =
    { plane;
      sp;
      keys;
      pks = Array.map fst keys;
      tsetup;
      tkeys;
      strategies;
      replicas = [||];
      tally = Workload.Tally.create ~f_plus_1:(Config.max_faulty cfg + 1) ~obs:reg ();
      propose_times = Hashtbl.create 1024;
      first_vc_trigger = None;
      last_view_entry = None;
      view_changes = 0;
      gen = None;
      resend_queue = Heap.create ();
      offered = counter "leopard_cluster_offered_total" "client requests offered";
      resends = counter "leopard_cluster_resends_total" "client re-send copies";
      rejected =
        counter "leopard_cluster_rejected_total" "client requests refused at replica admission";
      closed = false }
  in
  let hooks = hooks t in
  t.replicas <-
    Array.init n (fun id ->
        Replica.create ~platform:(plane.platform id) ~cfg ~id ~sk:(snd keys.(id)) ~pks:t.pks
          ~tsetup ~tkey:tkeys.(id) ?obs:sp.obs ~strategy:strategies.(id) ~hooks ~trace:sp.trace
          ());
  Array.iter Replica.start t.replicas;
  let max_view_g =
    Obs.Registry.gauge reg ~help:"highest view of any honest replica" "leopard_cluster_max_view"
  in
  Obs.Registry.on_collect reg (fun () -> Obs.Gauge.set max_view_g (max_view t));
  t

(* -- the client --------------------------------------------------------- *)

(* The client stays open-loop: a [Rejected] verdict is counted, never
   acted on. The replica is looked up at delivery, after any restart. *)
let submit t dst b =
  match Replica.submit t.replicas.(dst) b with
  | Replica.Admitted -> ()
  | Replica.Rejected _ -> Obs.Counter.add t.rejected b.Workload.Request.count

let send t ~dst b =
  t.plane.ingress ~dst ~size:(Workload.Request.wire_bytes b) (fun () -> submit t dst b)

let resend_batch t (b : Workload.Request.t) =
  let cfg = t.sp.cfg in
  let copy = Workload.Request.resend_of b in
  (* Re-send to several deterministically chosen replicas; §4.1:
     s = 9 already gives > 99.99% probability of hitting an honest one
     (f + 1 would guarantee it but floods large clusters). *)
  let fanout = min 9 (min (Config.max_faulty cfg + 1) (cfg.Config.n - 1)) in
  let leader = Config.leader_of_view cfg 1 in
  Workload.Assign.replicas_for ~n:cfg.Config.n ~s:fanout ~leader ~key:b.Workload.Request.id
  |> List.iter (fun dst ->
         Obs.Counter.incr t.resends;
         send t ~dst copy)

let schedule_resends t timeout =
  let period = Int64.div timeout 2L in
  let timeout_ns = Int64.to_int timeout in
  let rec scan () =
    let now = t.plane.now () in
    let now_ns = Int64.to_int now in
    while (not (Heap.is_empty t.resend_queue)) && Heap.peek_key_ns t.resend_queue <= now_ns do
      let b, attempts = Heap.pop_value t.resend_queue in
      if not (Workload.Request.is_confirmed b) then begin
        resend_batch t b;
        (* Exponential backoff (capped): a recovering cluster is not
           re-flooded with its whole backlog every period. *)
        let attempts = attempts + 1 in
        let wait_ns = timeout_ns * min 8 (1 lsl attempts) in
        Heap.add_ns t.resend_queue ~key_ns:(now_ns + wait_ns) ~seq:b.Workload.Request.id
          (b, attempts)
      end
    done;
    let before_horizon =
      match t.sp.horizon with Some h -> Sim_time.compare now h < 0 | None -> true
    in
    if before_horizon then t.plane.schedule ~delay:period scan
  in
  t.plane.schedule ~delay:timeout scan

let start_load t =
  if t.gen = None && not t.closed then begin
    let sp = t.sp and cfg = t.sp.cfg in
    let leader = Config.leader_of_view cfg 1 in
    (* Clients avoid the leader (it generates no datablocks) unless the
       leader-generates ablation is on. They do not know who is
       Byzantine; with re-sends enabled they spray over every target and
       rely on the timeout path, otherwise they target honest replicas so
       offered = confirmable. *)
    let targets =
      List.filter
        (fun id ->
          ((not (Net.Node_id.equal id leader)) || cfg.Config.leader_generates_datablocks)
          && (sp.resend <> None || not (Byzantine.is_byzantine t.strategies.(id))))
        (List.init cfg.Config.n Fun.id)
    in
    (* Every new batch is counted offered and registers its first
       re-send deadline as it is born; the scan then only ever touches
       due entries. *)
    let on_batch (b : Workload.Request.t) =
      Obs.Counter.add t.offered b.Workload.Request.count;
      match sp.resend with
      | Some timeout ->
        Heap.add_ns t.resend_queue
          ~key_ns:(Int64.to_int b.Workload.Request.born + Int64.to_int timeout)
          ~seq:b.Workload.Request.id (b, 0)
      | None -> ()
    in
    (* Client fan-out s > 1 (§4.1): each batch also goes to s - 1 extra
       mu-chosen replicas; the tally counts each batch id once. *)
    let fanned : (int, unit) Hashtbl.t = Hashtbl.create 64 in
    let on_arrival ~target (b : Workload.Request.t) =
      submit t target b;
      if cfg.Config.s > 1 && (not b.Workload.Request.resend)
         && not (Hashtbl.mem fanned b.Workload.Request.id)
      then begin
        Hashtbl.add fanned b.Workload.Request.id ();
        Workload.Assign.replicas_for ~n:cfg.Config.n ~s:cfg.Config.s ~leader
          ~key:b.Workload.Request.id
        |> List.iter (fun dst -> if not (Net.Node_id.equal dst target) then send t ~dst b)
      end
    in
    t.gen <-
      Some
        (Workload.Generator.start
           { Workload.Generator.now = t.plane.now; schedule = t.plane.schedule }
           ~rate:sp.load ~payload:cfg.Config.payload ~targets ~tick:sp.tick
           ~inject:t.plane.ingress ~submit:on_arrival ~on_batch ?until:sp.load_until ());
    Option.iter (schedule_resends t) sp.resend
  end

let stop_load t = Option.iter Workload.Generator.stop t.gen

let close t =
  if not t.closed then begin
    t.closed <- true;
    stop_load t;
    Workload.Tally.close t.tally;
    Hashtbl.reset t.propose_times;
    Heap.clear t.resend_queue
  end

(* -- faults ------------------------------------------------------------- *)

let restart_replica t id =
  Replica.halt t.replicas.(id);
  let r =
    Replica.recover ~platform:(t.plane.platform id) ~cfg:t.sp.cfg ~id ~sk:(snd t.keys.(id))
      ~pks:t.pks ~tsetup:t.tsetup ~tkey:t.tkeys.(id) ?obs:t.sp.obs ~strategy:t.strategies.(id)
      ~hooks:(hooks t) ~trace:t.sp.trace ()
  in
  t.replicas.(id) <- r;
  t.plane.set_down id false;
  Replica.start r
