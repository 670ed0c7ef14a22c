(* Tests for the chained-HotStuff baseline. *)

open Sim

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let cfg ?(n = 4) ?(batch = 50) () =
  Hotstuff.Hs_config.make ~n ~batch_size:batch ~propose_timeout:(Sim_time.ms 20)
    ~cost:Crypto.Cost_model.free ()

let spec ?(load = 2000.) ?(duration = 8) ?silent cfg =
  Hotstuff.Hs_runner.spec ~cfg ~load ~duration:(Sim_time.s duration) ~warmup:(Sim_time.s 2)
    ~silent:(Option.value silent ~default:0) ()

let test_types () =
  let b = Hotstuff.Hs_types.make_block ~height:1 ~parent:Hotstuff.Hs_types.genesis_hash ~batch:[] in
  checki "req count" 0 b.Hotstuff.Hs_types.req_count;
  let b2 = Hotstuff.Hs_types.make_block ~height:2 ~parent:(Hotstuff.Hs_types.block_hash b) ~batch:[] in
  checkb "hash differs by height/parent" false
    (Crypto.Hash.equal (Hotstuff.Hs_types.block_hash b) (Hotstuff.Hs_types.block_hash b2));
  checkb "vote payload binds height" true
    (Hotstuff.Hs_types.vote_payload ~height:1 ~block_hash:(Hotstuff.Hs_types.block_hash b)
     <> Hotstuff.Hs_types.vote_payload ~height:2 ~block_hash:(Hotstuff.Hs_types.block_hash b))

let test_commit_progress () =
  let r = Hotstuff.Hs_runner.run (spec (cfg ())) in
  checkb "commits happen" true (r.Hotstuff.Hs_runner.committed_heights > 0);
  checkb "safety" true r.Hotstuff.Hs_runner.safety_ok;
  checkb "most offered confirmed" true
    (r.Hotstuff.Hs_runner.confirmed > r.Hotstuff.Hs_runner.offered * 8 / 10);
  checkb "latency recorded" true (Stats.Histogram.count r.Hotstuff.Hs_runner.latency > 0)

let test_silent_f_live () =
  let c = cfg ~n:7 () in
  let r = Hotstuff.Hs_runner.run (spec ~silent:c.Hotstuff.Hs_config.f (cfg ~n:7 ())) in
  checkb "live with f silent" true (r.Hotstuff.Hs_runner.committed_heights > 0);
  checkb "safety" true r.Hotstuff.Hs_runner.safety_ok

let test_leader_bottleneck_shape () =
  (* Doubling n roughly doubles the leader's egress per confirmed
     request — Eq. (1). Run both at the same saturating load on a slow
     link so the leader NIC is the binding constraint. *)
  let slow = Net.Network.{ default_link with out_bps = mbps 50.; in_bps = mbps 50. } in
  let run n =
    let c = Hotstuff.Hs_config.make ~n ~batch_size:200 ~cost:Crypto.Cost_model.free () in
    Hotstuff.Hs_runner.run
      (Hotstuff.Hs_runner.spec ~cfg:c ~link:slow ~load:50_000. ~duration:(Sim_time.s 10)
         ~warmup:(Sim_time.s 3) ~silent:0 ())
  in
  let r8 = run 8 and r16 = run 16 in
  checkb "throughput roughly halves when n doubles" true
    (r16.Hotstuff.Hs_runner.throughput < 0.75 *. r8.Hotstuff.Hs_runner.throughput);
  checkb "both saturated near link rate" true
    (r8.Hotstuff.Hs_runner.leader_bps > 0.5 *. Net.Network.mbps 50.)

let test_batch_size_amortizes () =
  (* Fig 7's mechanism: a tiny batch wastes round trips; a larger batch
     amortizes them. *)
  let run batch = (Hotstuff.Hs_runner.run (spec ~load:20_000. (cfg ~n:4 ~batch ()))).Hotstuff.Hs_runner.throughput in
  let small = run 10 and big = run 500 in
  checkb "bigger batch, higher throughput" true (big > small)

(* Pins the baseline's simulated outcome across commits: n=7 with f
   silent, rendered field by field for {!Pin.digest}. *)
let render_report b (r : Hotstuff.Hs_runner.report) =
  let line fmt = Pin.line b fmt in
  line "n=%d offered=%d confirmed=%d" r.n r.offered r.confirmed;
  line "throughput=%h goodput=%h leader_bps=%h window=%h" r.throughput r.goodput_bps
    r.leader_bps r.window_sec;
  Pin.latency b r.latency;
  line "leader sent=%d received=%d" r.leader_sent_bytes r.leader_received_bytes;
  line "committed_heights=%d safety=%b" r.committed_heights r.safety_ok

let test_pinned_report_digest () =
  let c = cfg ~n:7 () in
  let r = Hotstuff.Hs_runner.run (spec ~silent:c.Hotstuff.Hs_config.f c) in
  Alcotest.(check string) "n=7 f silent" "ed847f2b4c0c4583f545f7c89374a66f" (Pin.digest render_report r)

let () =
  Alcotest.run "hotstuff"
    [ ( "hotstuff",
        [ Alcotest.test_case "types" `Quick test_types;
          Alcotest.test_case "commit progress" `Quick test_commit_progress;
          Alcotest.test_case "f silent live" `Quick test_silent_f_live;
          Alcotest.test_case "pinned report digest" `Quick test_pinned_report_digest;
          Alcotest.test_case "leader bottleneck shape" `Slow test_leader_bottleneck_shape;
          Alcotest.test_case "batching amortizes" `Slow test_batch_size_amortizes ] ) ]
