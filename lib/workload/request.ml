type t = {
  id : int;
  count : int;
  size_each : int;
  born : Sim.Sim_time.t;
  resend : bool;
  confirmed : bool ref;
}

let framing_bytes = 32

let make ~id ~count ~size_each ~born ?(resend = false) () =
  assert (count > 0 && size_each >= 0);
  { id; count; size_each; born; resend; confirmed = ref false }

let resend_of t = { t with resend = true }

let is_confirmed t = !(t.confirmed)
let mark_confirmed t = t.confirmed := true

let payload_bytes t = t.count * t.size_each
let wire_bytes t = payload_bytes t + framing_bytes

let encode t =
  Printf.sprintf "batch:%d:%d:%d:%Ld:%b" t.id t.count t.size_each t.born t.resend

let hash t = Crypto.Hash.of_string (encode t)
