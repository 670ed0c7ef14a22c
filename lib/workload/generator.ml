open Sim

type submit = target:Net.Node_id.t -> Request.t -> unit

type clock = {
  now : unit -> Sim_time.t;
  schedule : delay:Sim_time.span -> (unit -> unit) -> unit;
}

let engine_clock engine =
  { now = (fun () -> Engine.now engine);
    schedule = (fun ~delay f -> ignore (Engine.schedule engine ~delay f : Engine.handle)) }

type t = {
  clock : clock;
  rate : float;
  payload : int;
  targets : Net.Node_id.t array;
  inject : dst:Net.Node_id.t -> size:int -> (unit -> unit) -> unit;
  submit : submit;
  on_batch : Request.t -> unit;
  tick : Sim_time.span;
  until : Sim_time.t option;
  mutable next_id : int;
  mutable offered : int;
  mutable carry : float array; (* fractional requests owed per target *)
  mutable last_tick : Sim_time.t;
  mutable stopped : bool;
  mutable all_batches : Request.t list;
}

let offered t = t.offered
let batches t = t.all_batches
let next_batch_id t = t.next_id
let stop t = t.stopped <- true

let make_batch t ~at ~count ?resend () =
  let b = Request.make ~id:t.next_id ~count ~size_each:t.payload ~born:at ?resend () in
  t.next_id <- t.next_id + 1;
  t.offered <- t.offered + count;
  t.all_batches <- b :: t.all_batches;
  t.on_batch b;
  b

let emit t ~now target count =
  let b = make_batch t ~at:now ~count () in
  t.inject ~dst:target ~size:(Request.wire_bytes b) (fun () -> t.submit ~target b)

(* Requests accrue from the clock time elapsed since the previous tick:
   exactly [tick] on the simulator, longer on a loop that ran late, so a
   stalled host still offers the configured rate. *)
let rec tick_once t =
  if not t.stopped then begin
    let now = t.clock.now () in
    let past_deadline =
      match t.until with Some u -> Sim_time.compare now u >= 0 | None -> false
    in
    if not past_deadline then begin
      let elapsed = Sim_time.(now - t.last_tick) in
      t.last_tick <- now;
      let per_target =
        t.rate *. Sim_time.to_sec elapsed /. float_of_int (Array.length t.targets)
      in
      Array.iteri
        (fun i target ->
          let owed = t.carry.(i) +. per_target in
          let count = int_of_float owed in
          t.carry.(i) <- owed -. float_of_int count;
          if count > 0 then emit t ~now target count)
        t.targets;
      t.clock.schedule ~delay:t.tick (fun () -> tick_once t)
    end
  end

let start clock ~rate ~payload ~targets ~inject ~submit ?(on_batch = fun _ -> ())
    ?(tick = Sim_time.ms 20) ?until () =
  assert (targets <> [] && rate >= 0.);
  let targets = Array.of_list targets in
  let t =
    { clock;
      rate;
      payload;
      targets;
      inject;
      submit;
      on_batch;
      tick;
      until;
      next_id = 0;
      offered = 0;
      carry = Array.make (Array.length targets) 0.;
      (* the first tick pays for one tick period up front *)
      last_tick = Sim_time.(clock.now () - tick);
      stopped = false;
      all_batches = [] }
  in
  tick_once t;
  t
