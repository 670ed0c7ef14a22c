open Sim
module Sig = Crypto.Signature
module Hash = Crypto.Hash

type cfg = {
  n : int;
  f : int;
  batch_size : int;
  payload : int;
  window : int;
  propose_timeout : Sim_time.span;
  cost : Crypto.Cost_model.t;
  cores : int;
}

let make_cfg ~n ?(batch_size = 400) ?(payload = 128) ?(window = 8)
    ?(propose_timeout = Sim_time.ms 50) ?(cost = Crypto.Cost_model.ecdsa_only) ?(cores = 4) () =
  if n < 4 then invalid_arg "Pbft.make_cfg: n must be at least 4";
  { n; f = (n - 1) / 3; batch_size; payload; window; propose_timeout; cost; cores }

type spec = {
  cfg : cfg;
  link : Net.Network.link;
  seed : int64;
  load : float;
  duration : Sim_time.span;
  warmup : Sim_time.span;
  silent : int;
}

let spec ~cfg ?(link = Net.Network.default_link) ?(seed = 42L) ?(load = 1e5)
    ?(duration = Sim_time.s 20) ?(warmup = Sim_time.s 5) ?silent () =
  { cfg; link; seed; load; duration; warmup; silent = Option.value silent ~default:cfg.f }

type block = {
  seq : int;
  batch : Workload.Request.t list;
  req_count : int;
  payload_bytes : int;
  digest_memo : Hash.t;
  wire_bytes : int;
}

let make_block ~seq ~batch =
  { seq;
    batch;
    req_count = List.fold_left (fun a b -> a + b.Workload.Request.count) 0 batch;
    payload_bytes = List.fold_left (fun a b -> a + Workload.Request.payload_bytes b) 0 batch;
    digest_memo =
      Hash.of_strings (Printf.sprintf "pbft:%d" seq :: List.map Workload.Request.encode batch);
    wire_bytes =
      24 + Crypto.Signature.size_bytes
      + List.fold_left (fun acc b -> acc + Workload.Request.wire_bytes b) 0 batch }

let block_digest b = b.digest_memo

type msg =
  | Pre_prepare of { block : block; signature : Sig.t }
  | Prepare of { seq : int; digest : Hash.t; voter : Net.Node_id.t; signature : Sig.t }
  | Commit of { seq : int; digest : Hash.t; voter : Net.Node_id.t; signature : Sig.t }

let wire_size = function
  | Pre_prepare { block; _ } -> block.wire_bytes
  | Prepare _ | Commit _ -> 24 + Hash.size_bytes + Sig.size_bytes

let category = function
  | Pre_prepare _ -> "proposal"
  | Prepare _ | Commit _ -> "vote"

let meta = Net.Network.{ size = wire_size; category; priority = (fun _ -> Net.Nic.High) }

let prepare_payload ~seq ~digest = Printf.sprintf "pbft.prep:%d:%s" seq (Hash.raw digest)
let commit_payload ~seq ~digest = Printf.sprintf "pbft.commit:%d:%s" seq (Hash.raw digest)

type inst = {
  mutable block : block option;
  mutable digest : Hash.t option;
  prepares : (Net.Node_id.t, unit) Hashtbl.t;
  commits : (Net.Node_id.t, unit) Hashtbl.t;
  mutable sent_commit : bool;
  mutable executed : bool;
}

type replica = {
  engine : Engine.t;
  network : msg Net.Network.t;
  cfg : cfg;
  id : Net.Node_id.t;
  leader : Net.Node_id.t;
  sk : Sig.private_key;
  pks : Sig.public_key array;
  silent : bool;
  cpu : Net.Cpu.t;
  mempool : Workload.Request.t Queue.t;
  mutable pending_reqs : int;
  instances : (int, inst) Hashtbl.t;
  mutable next_seq : int;          (* leader *)
  mutable executed_up_to : int;    (* highest contiguous executed seq *)
  mutable last_proposal : Sim_time.t;
  on_execute : id:Net.Node_id.t -> seq:int -> block -> unit;
}

let inst_of r seq =
  match Hashtbl.find_opt r.instances seq with
  | Some i -> i
  | None ->
    let i =
      { block = None;
        digest = None;
        prepares = Hashtbl.create 8;
        commits = Hashtbl.create 8;
        sent_commit = false;
        executed = false }
    in
    Hashtbl.add r.instances seq i;
    i

let active r = not r.silent
let is_leader r = Net.Node_id.equal r.id r.leader
let with_cpu r cost f = Net.Cpu.submit r.cpu ~cost f

let try_execute r =
  let rec go () =
    let next = r.executed_up_to + 1 in
    match Hashtbl.find_opt r.instances next with
    | Some i when (not i.executed) && Hashtbl.length i.commits >= (2 * r.cfg.f) + 1 ->
      (match i.block with
       | Some block ->
         i.executed <- true;
         r.executed_up_to <- next;
         List.iter Workload.Request.mark_confirmed block.batch;
         r.on_execute ~id:r.id ~seq:next block;
         go ()
       | None -> ())
    | Some _ | None -> ()
  in
  go ()

let maybe_commit r seq i =
  match i.digest with
  | Some digest when (not i.sent_commit) && Hashtbl.length i.prepares >= 2 * r.cfg.f ->
    i.sent_commit <- true;
    with_cpu r r.cfg.cost.sign (fun () ->
        if active r then begin
          let signature = Sig.sign r.sk (commit_payload ~seq ~digest) in
          Net.Network.multicast r.network ~src:r.id (Commit { seq; digest; voter = r.id; signature });
          Hashtbl.replace i.commits r.id ();
          try_execute r
        end)
  | Some _ | None -> ()

let take_batch r limit =
  let rec go acc got =
    if got >= limit then List.rev acc
    else
      match Queue.pop r.mempool with
      | exception Queue.Empty -> List.rev acc
      | b ->
        r.pending_reqs <- r.pending_reqs - b.Workload.Request.count;
        if Workload.Request.is_confirmed b then go acc got
        else go (b :: acc) (got + b.Workload.Request.count)
  in
  go [] 0

let rec maybe_propose r =
  if active r && is_leader r && r.next_seq <= r.executed_up_to + r.cfg.window then begin
    let full = r.pending_reqs >= r.cfg.batch_size in
    let timed_out =
      r.pending_reqs > 0
      && Sim_time.compare Sim_time.(Engine.now r.engine - r.last_proposal) r.cfg.propose_timeout >= 0
    in
    if full || timed_out then begin
      r.last_proposal <- Engine.now r.engine;
      let batch = take_batch r r.cfg.batch_size in
      if batch <> [] then begin
        let block = make_block ~seq:r.next_seq ~batch in
        r.next_seq <- r.next_seq + 1;
        let digest = block_digest block in
        let cost =
          Sim_time.( + ) r.cfg.cost.sign
            (Crypto.Cost_model.hash_cost r.cfg.cost ~bytes_len:block.payload_bytes)
        in
        with_cpu r cost (fun () ->
            if active r then begin
              let signature = Sig.sign r.sk (prepare_payload ~seq:block.seq ~digest) in
              Net.Network.multicast r.network ~src:r.id (Pre_prepare { block; signature });
              let i = inst_of r block.seq in
              i.block <- Some block;
              i.digest <- Some digest;
              (* The leader's pre-prepare counts as its prepare. *)
              Hashtbl.replace i.prepares r.id ();
              maybe_propose r
            end)
      end
    end
  end

let on_pre_prepare r block signature ~src =
  let digest = block_digest block in
  if
    Net.Node_id.equal src r.leader
    && Sig.verify r.pks.(r.leader) signature (prepare_payload ~seq:block.seq ~digest)
  then begin
    let i = inst_of r block.seq in
    if i.block = None then begin
      i.block <- Some block;
      i.digest <- Some digest;
      Hashtbl.replace i.prepares r.leader ();
      with_cpu r r.cfg.cost.sign (fun () ->
          if active r then begin
            let s = Sig.sign r.sk (prepare_payload ~seq:block.seq ~digest) in
            Net.Network.multicast r.network ~src:r.id
              (Prepare { seq = block.seq; digest; voter = r.id; signature = s });
            Hashtbl.replace i.prepares r.id ();
            maybe_commit r block.seq i
          end)
    end
  end

let handle r ~src m =
  if active r then
    match m with
    | Pre_prepare { block; signature } ->
      let cost =
        Sim_time.( + ) r.cfg.cost.verify
          (Crypto.Cost_model.hash_cost r.cfg.cost ~bytes_len:block.payload_bytes)
      in
      with_cpu r cost (fun () -> if active r then on_pre_prepare r block signature ~src)
    | Prepare { seq; digest; voter; signature } ->
      with_cpu r r.cfg.cost.verify (fun () ->
          if
            active r
            && Sig.verify r.pks.(voter) signature (prepare_payload ~seq ~digest)
          then begin
            let i = inst_of r seq in
            if i.digest = None || Option.equal Hash.equal i.digest (Some digest) then begin
              Hashtbl.replace i.prepares voter ();
              maybe_commit r seq i
            end
          end)
    | Commit { seq; digest; voter; signature } ->
      with_cpu r r.cfg.cost.verify (fun () ->
          if
            active r
            && Sig.verify r.pks.(voter) signature (commit_payload ~seq ~digest)
          then begin
            let i = inst_of r seq in
            Hashtbl.replace i.commits voter ();
            try_execute r;
            maybe_propose r
          end)

let submit r b =
  if active r then begin
    Queue.push b r.mempool;
    r.pending_reqs <- r.pending_reqs + b.Workload.Request.count;
    if is_leader r then maybe_propose r
  end

type report = {
  n : int;
  offered : int;
  confirmed : int;
  throughput : float;
  latency : Stats.Histogram.t;
  leader_bps : float;
  safety_ok : bool;
}

let run (sp : spec) =
  let cfg = sp.cfg in
  let n = cfg.n in
  let engine = Engine.create ~seed:sp.seed () in
  let network = Net.Network.create engine ~n ~meta ~link:sp.link in
  let key_rng = Rng.split (Engine.rng engine) in
  let keys = Array.init n (fun _ -> Sig.keygen key_rng) in
  let pks = Array.map fst keys in
  let leader = 0 in
  let silent_set = List.init sp.silent (fun i -> n - 1 - i) in
  let tally = Workload.Tally.create ~f_plus_1:(cfg.f + 1) () in
  let executed_digests : (int, Hash.t) Hashtbl.t = Hashtbl.create 1024 in
  let safety_ok = ref true in
  let on_execute ~id:_ ~seq block =
    (match Hashtbl.find_opt executed_digests seq with
     | Some d -> if not (Hash.equal d (block_digest block)) then safety_ok := false
     | None -> Hashtbl.add executed_digests seq (block_digest block));
    if Workload.Tally.executed tally ~sn:seq then begin
      let at = Engine.now engine in
      List.iter (fun b -> ignore (Workload.Tally.confirm tally ~at b : bool)) block.batch
    end
  in
  let replicas =
    Array.init n (fun id ->
        let r =
          { engine;
            network;
            cfg;
            id;
            leader;
            sk = snd keys.(id);
            pks;
            silent = List.mem id silent_set;
            cpu = Net.Cpu.create engine ~cores:cfg.cores;
            mempool = Queue.create ();
            pending_reqs = 0;
            instances = Hashtbl.create 64;
            next_seq = 1;
            executed_up_to = 0;
            last_proposal = Sim_time.zero;
            on_execute }
        in
        Net.Network.set_handler network id (fun ~src m -> handle r ~src m);
        r)
  in
  let rec leader_tick () =
    maybe_propose replicas.(leader);
    ignore (Engine.schedule engine ~delay:cfg.propose_timeout (fun () -> leader_tick ()))
  in
  leader_tick ();
  let gen =
    let tick =
      if sp.load <= 0. then Sim_time.ms 20
      else
        Sim_time.max (Sim_time.us 100)
          (Sim_time.min (Sim_time.ms 20) (Sim_time.of_sec (32. /. sp.load)))
    in
    Workload.Generator.start (Workload.Generator.engine_clock engine)
      ~rate:sp.load ~payload:cfg.payload ~targets:[ leader ] ~tick
      ~inject:(fun ~dst ~size cb -> Net.Network.inject network ~dst ~size ~category:"client-req" cb)
      ~submit:(fun ~target b -> submit replicas.(target) b)
      ~until:sp.duration ()
  in
  ignore (Engine.schedule_at engine ~at:sp.warmup (fun () -> Net.Network.reset_stats network));
  Engine.run ~until:sp.duration engine;
  let window_sec = Sim_time.to_sec Sim_time.(sp.duration - sp.warmup) in
  let acct = Net.Network.stats network leader in
  let bytes =
    Net.Bandwidth.total acct Net.Bandwidth.Sent + Net.Bandwidth.total acct Net.Bandwidth.Received
  in
  { n;
    offered = Workload.Generator.offered gen;
    confirmed = Workload.Tally.confirmed tally;
    throughput = Workload.Tally.throughput tally ~from_:sp.warmup ~until:sp.duration;
    latency = Workload.Tally.latency tally;
    leader_bps = (if window_sec <= 0. then 0. else 8. *. float_of_int bytes /. window_sec);
    safety_ok = !safety_ok }
