type t = {
  f_plus_1 : int;
  counts : (int, int ref) Hashtbl.t; (* per serial, above [pruned_below] *)
  ids : (int, unit) Hashtbl.t; (* batches counted *)
  mutable pruned_below : int;
  mutable confirmed : int;
  mutable serials : int;
  confirm_meter : Stats.Meter.t;
  goodput_meter : Stats.Meter.t; (* payload bytes confirmed *)
  latency : Stats.Histogram.t;
  obs : (Obs.Histogram.t * Obs.Counter.t) option;
}

let create ~f_plus_1 ?obs () =
  { f_plus_1;
    counts = Hashtbl.create 1024;
    ids = Hashtbl.create 1024;
    pruned_below = 0;
    confirmed = 0;
    serials = 0;
    confirm_meter = Stats.Meter.create ();
    goodput_meter = Stats.Meter.create ();
    latency = Stats.Histogram.create ();
    obs =
      Option.map
        (fun reg ->
          ( Obs.Registry.histogram reg ~help:"submit to f+1-confirm latency (ns)"
              "leopard_confirm_latency_ns",
            Obs.Registry.counter reg ~help:"client requests confirmed"
              "leopard_confirmed_requests_total" ))
        obs }

let executed t ~sn =
  if sn <= t.pruned_below then false
  else begin
    let c =
      match Hashtbl.find_opt t.counts sn with
      | Some c -> c
      | None ->
        let c = ref 0 in
        Hashtbl.add t.counts sn c;
        c
    in
    incr c;
    let fires = !c = t.f_plus_1 in
    if fires then t.serials <- t.serials + 1;
    fires
  end

let confirm t ~at (b : Request.t) =
  if Hashtbl.mem t.ids b.id then false
  else begin
    Hashtbl.add t.ids b.id ();
    let wait = Sim.Sim_time.(at - b.born) in
    t.confirmed <- t.confirmed + b.count;
    Stats.Meter.add t.confirm_meter ~at b.count;
    Stats.Meter.add t.goodput_meter ~at (Request.payload_bytes b);
    Stats.Histogram.add t.latency wait;
    (match t.obs with
     | Some (h, c) ->
       Obs.Histogram.record h (Int64.to_int wait);
       Obs.Counter.add c b.count
     | None -> ());
    true
  end

let prune_below t lw =
  if lw > t.pruned_below then begin
    t.pruned_below <- lw;
    let stale = Hashtbl.fold (fun sn _ acc -> if sn <= lw then sn :: acc else acc) t.counts [] in
    List.iter (Hashtbl.remove t.counts) stale
  end

let pruned_below t = t.pruned_below

let close t =
  t.pruned_below <- max_int;
  Hashtbl.reset t.counts;
  Hashtbl.reset t.ids

let confirmed t = t.confirmed
let serials t = t.serials
let latency t = t.latency
let throughput t ~from_ ~until = Stats.Meter.rate t.confirm_meter ~from_ ~until
let goodput_bps t ~from_ ~until = 8. *. Stats.Meter.rate t.goodput_meter ~from_ ~until
