(* Tests for the PBFT-style all-to-all baseline. *)

open Sim

let checkb = Alcotest.(check bool)

let cfg ?(n = 4) () =
  Pbft.make_cfg ~n ~batch_size:50 ~propose_timeout:(Sim_time.ms 20)
    ~cost:Crypto.Cost_model.free ()

let spec ?(load = 2000.) ?silent cfg =
  Pbft.spec ~cfg ~load ~duration:(Sim_time.s 8) ~warmup:(Sim_time.s 2)
    ~silent:(Option.value silent ~default:0) ()

let test_progress_and_safety () =
  let r = Pbft.run (spec (cfg ())) in
  checkb "confirms requests" true (r.Pbft.confirmed > 0);
  checkb "safety" true r.Pbft.safety_ok;
  checkb "most confirmed" true (r.Pbft.confirmed > r.Pbft.offered * 8 / 10)

let test_silent_f () =
  let c = cfg ~n:7 () in
  let r = Pbft.run (spec ~silent:c.Pbft.f (cfg ~n:7 ())) in
  checkb "live with f silent" true (r.Pbft.confirmed > 0);
  checkb "safety" true r.Pbft.safety_ok

let test_quadratic_votes_show_in_traffic () =
  (* All-to-all voting: total vote traffic grows ~n^2, visible already in
     leader-received vote bytes vs a linear-vote protocol. Here we just
     assert the all-to-all pattern produces progress at n = 10 and that
     throughput is lower than at n = 4 under the same constrained link. *)
  let slow = Net.Network.{ default_link with out_bps = mbps 30.; in_bps = mbps 30. } in
  let run n =
    Pbft.run
      (Pbft.spec ~cfg:(Pbft.make_cfg ~n ~batch_size:100 ~cost:Crypto.Cost_model.free ())
         ~link:slow ~load:20_000. ~duration:(Sim_time.s 10) ~warmup:(Sim_time.s 3) ~silent:0 ())
  in
  let r4 = run 4 and r10 = run 10 in
  checkb "n=10 slower than n=4" true (r10.Pbft.throughput < r4.Pbft.throughput);
  checkb "n=10 still progresses" true (r10.Pbft.confirmed > 0)

(* Pins the baseline's simulated outcome across commits: n=7 with f
   silent, rendered field by field for {!Pin.digest}. *)
let render_report b (r : Pbft.report) =
  let line fmt = Pin.line b fmt in
  line "n=%d offered=%d confirmed=%d" r.n r.offered r.confirmed;
  line "throughput=%h leader_bps=%h" r.throughput r.leader_bps;
  Pin.latency b r.latency;
  line "safety=%b" r.safety_ok

let test_pinned_report_digest () =
  let c = cfg ~n:7 () in
  let r = Pbft.run (spec ~silent:c.Pbft.f c) in
  Alcotest.(check string) "n=7 f silent" "978a1eb770bc97c3524d600d80b7c17a" (Pin.digest render_report r)

let () =
  Alcotest.run "pbft"
    [ ( "pbft",
        [ Alcotest.test_case "progress & safety" `Quick test_progress_and_safety;
          Alcotest.test_case "f silent" `Quick test_silent_f;
          Alcotest.test_case "pinned report digest" `Quick test_pinned_report_digest;
          Alcotest.test_case "scale degradation" `Slow test_quadratic_votes_show_in_traffic ] ) ]
