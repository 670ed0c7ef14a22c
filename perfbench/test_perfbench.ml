(* Tests of the benchmark itself: run with  dune build @perfbench/selftest *)

open Perfbench

let small_tcp = { Tcp_bench.durable with rate = 2_000.; fsync = Store.Wal.Never; reps = 1 }

let small_sim =
  { Sim_scale.n = 16; alpha = 2000; bft_size = 100; load = 20_000.; warmup_s = 1;
    load_until_s = 4; duration_s = 5; setups = 1 }

let metric name l =
  match List.find_opt (fun (k, _, _) -> k = name) l with
  | Some (_, v, _) -> v
  | None -> Alcotest.failf "no metric %s" name

(* The f+1 rule applied from outside (ledger and pool polling) must count
   exactly the requests the cluster's own execution hooks count. *)
let outside_count_matches () =
  let r = Tcp_bench.run_rep ~spans:(Span.create ~enabled:false) small_tcp ~seed:3 ~seconds:1.
      ~rep:0 in
  Alcotest.(check bool) "requests confirmed" true (r.Tcp_bench.confirmed > 0);
  Alcotest.(check int) "all confirmed" r.Tcp_bench.offered r.Tcp_bench.confirmed;
  List.iter (fun (name, ok) -> Alcotest.(check bool) name true ok) r.Tcp_bench.checks

(* Simulated metrics are a function of the seed alone. *)
let sim_replays () =
  let simulated (r, layers) =
    List.map
      (fun k -> (k, metric k r.Outcome.metrics))
      [ "throughput_rps"; "latency_p50_ms"; "latency_p99_ms"; "confirmed_ratio" ]
    @ List.map
        (fun k -> (k, metric k layers))
        [ "sim.events"; "net.msgs_per_req"; "net.leader_bytes_per_req";
          "core.reqs_per_bftblock"; "core.executed_blocks" ]
  in
  let a = simulated (Sim_scale.run small_sim ~seed:7) in
  let b = simulated (Sim_scale.run small_sim ~seed:7) in
  let c = simulated (Sim_scale.run small_sim ~seed:8) in
  List.iter2 (fun (k, x) (_, y) -> Alcotest.(check (float 0.)) k x y) a b;
  Alcotest.(check bool) "another seed changes sim.events" true
    (List.assoc "sim.events" a <> List.assoc "sim.events" c)

(* Spans nest, and their self times plus the root's own remainder (the
   unattributed time) add up to the root's wall time. *)
let self_times_add_up () =
  let spans = Span.create ~enabled:true in
  let r, _ = Tcp_bench.run ~spans small_tcp ~seed:1 ~seconds:1. in
  Alcotest.(check bool) "run correct" true r.Outcome.correct;
  let n = Span.length spans in
  Alcotest.(check bool) "spans recorded" true (n > 100);
  let names = List.map fst (Span.self_by_name spans) in
  List.iter
    (fun k -> Alcotest.(check bool) k true (List.mem k names))
    [ "run"; "tcp.setup"; "tcp.load"; "loop.turn"; "client.submit"; "store.log" ];
  for i = 0 to n - 1 do
    Alcotest.(check bool) "closed" true (Span.duration spans i >= 0)
  done;
  let self = Span.self_times spans in
  Array.iteri (fun i s -> if s < 0 then Alcotest.failf "span %d overlaps its children" i) self;
  let total = Array.fold_left ( + ) 0 self in
  Alcotest.(check int) "self times + unattributed = wall" (Span.duration spans 0) total;
  Alcotest.(check bool) "unattributed under 5%" true
    (float_of_int self.(0) < 0.05 *. float_of_int (Span.duration spans 0))

let () =
  Alcotest.run "perfbench"
    [ ( "benchmark",
        [ Alcotest.test_case "outside f+1 count equals Cluster.confirmed" `Quick
            outside_count_matches;
          Alcotest.test_case "sim metrics replay by seed" `Quick sim_replays;
          Alcotest.test_case "traced self times add up to wall time" `Quick self_times_add_up ]
      ) ]
