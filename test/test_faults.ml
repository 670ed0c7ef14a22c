(* Tests for the deterministic fault-injection subsystem: injector
   semantics, the scenario corpus against the safety/liveness oracles on
   the sim plane, view-change recovery on both planes, byte-identical
   replay, and TCP-cluster teardown hygiene. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

open Faults

let rng = Sim.Rng.create 2026L
let _pk, sk = Crypto.Signature.keygen rng

let timeout_msg =
  Core.Msg.Timeout { view = 3; sender = 2; signature = Crypto.Signature.sign sk "t" }

(* -- injector semantics -------------------------------------------------- *)

let test_partition_cuts_groups () =
  let inj = Injector.create ~n:4 ~rng:(Sim.Rng.create 1L) in
  checkb "no partition at start" false (Injector.partitioned inj);
  checkb "link faults report applied" true
    (Injector.apply inj (Scenario.Partition [ [ 0 ]; [ 1; 2; 3 ] ]));
  checkb "partitioned" true (Injector.partitioned inj);
  checkb "cut edge drops" true (Injector.decide inj ~src:0 ~dst:1 timeout_msg = Injector.Drop);
  checkb "cut edge drops (reverse)" true
    (Injector.decide inj ~src:2 ~dst:0 timeout_msg = Injector.Drop);
  checkb "same side passes" true
    (Injector.decide inj ~src:1 ~dst:3 timeout_msg = Injector.Pass);
  checkb "heal applied" true (Injector.apply inj Scenario.Heal);
  checkb "healed edge passes" true
    (Injector.decide inj ~src:0 ~dst:1 timeout_msg = Injector.Pass)

let test_unlisted_ids_form_implicit_group () =
  let inj = Injector.create ~n:4 ~rng:(Sim.Rng.create 1L) in
  ignore (Injector.apply inj (Scenario.Partition [ [ 0 ] ]) : bool);
  checkb "isolated node cut from the rest" true
    (Injector.decide inj ~src:0 ~dst:3 timeout_msg = Injector.Drop);
  checkb "the rest still talk" true
    (Injector.decide inj ~src:1 ~dst:2 timeout_msg = Injector.Pass)

let test_rule_matching () =
  let inj = Injector.create ~n:4 ~rng:(Sim.Rng.create 1L) in
  (* Kind filter: a rule on K_propose must not touch a Timeout. *)
  ignore
    (Injector.apply inj (Scenario.Drop (Scenario.rule ~kinds:[ Core.Msg.K_propose ] ()))
      : bool);
  checkb "kind mismatch passes" true
    (Injector.decide inj ~src:0 ~dst:1 timeout_msg = Injector.Pass);
  (* Src filter, first match wins over later rules. *)
  ignore (Injector.apply inj (Scenario.Drop (Scenario.rule ~src:2 ())) : bool);
  ignore
    (Injector.apply inj
       (Scenario.Delay (Scenario.rule ~src:2 (), Sim.Sim_time.ms 10))
      : bool);
  checki "three rules active" 3 (Injector.active_rules inj);
  checkb "src match drops (first rule wins)" true
    (Injector.decide inj ~src:2 ~dst:1 timeout_msg = Injector.Drop);
  checkb "other src passes" true
    (Injector.decide inj ~src:3 ~dst:1 timeout_msg = Injector.Pass);
  (* Heal clears rules too. *)
  ignore (Injector.apply inj Scenario.Heal : bool);
  checki "heal clears rules" 0 (Injector.active_rules inj);
  (* Process faults are not the injector's job. *)
  checkb "crash not applied here" false (Injector.apply inj (Scenario.Crash 1));
  checkb "revive not applied here" false (Injector.apply inj (Scenario.Revive 1))

let test_probabilistic_rule_is_deterministic () =
  let decisions seed =
    let inj = Injector.create ~n:4 ~rng:(Sim.Rng.create seed) in
    ignore (Injector.apply inj (Scenario.Drop (Scenario.rule ~prob:0.5 ())) : bool);
    List.init 200 (fun i ->
        Injector.decide inj ~src:(i mod 4) ~dst:((i + 1) mod 4) timeout_msg)
  in
  checkb "same seed, same decisions" true (decisions 5L = decisions 5L);
  checkb "coin actually flips" true
    (List.exists (fun d -> d = Injector.Drop) (decisions 5L)
    && List.exists (fun d -> d = Injector.Pass) (decisions 5L))

(* -- sim plane: the whole corpus must satisfy its oracle ----------------- *)

let run_sim ?(seed = 42L) build ~n =
  let sc = build ~n in
  let o = Harness.run ~seed Harness.Sim sc in
  if not (Oracle.outcome_ok o) then
    Alcotest.failf "sim %s n=%d failed:@.%a" sc.Scenario.name n Oracle.pp_verdict
      o.Oracle.verdict;
  o

let run_tcp sc = Harness.run ~seed:42L (Harness.Tcp { data_root = None; metrics_out = None }) sc

(* The outcome rendered for {!Pin.digest}: the measured numbers, then the
   rendered trace. *)
let render_outcome b (o : Oracle.outcome) =
  Pin.line b "confirmed_at_heal=%d confirmed=%d final_view=%d view_changes=%d"
    o.Oracle.confirmed_at_heal o.Oracle.confirmed o.Oracle.final_view o.Oracle.view_changes;
  Buffer.add_string b o.Oracle.trace

(* Pins every sim outcome across commits (seed 42, n=4), where the replay
   test below only compares two runs of one build. Re-pinning is a
   deliberate, recorded act. *)
let sim_pins_n4 =
  [ ("leader-crash", "acf6072e7193dcb2cfd9a712efdcf4c4");
    ("leader-crash-checkpoint", "03de95aa28791327d87e917c4a5b90c5");
    ("f-crashes", "ba1b93fcc71291b6aa6e580750b757e9");
    ("partition-quorum", "fb49facbce2fd58c98d3db910908f57d");
    ("slow-leader", "0cafdc38a41dc99a3370c3805c9ec6fa");
    ("silence-leader", "7e877e7399040d688b6e3cc945bec166");
    ("equivocating-leader", "0c61a1a7deabeec82b4c817da6ded8d0");
    ("lagging-replica", "cd9b656c85a63068f3bbe85ef81d1a10");
    ("duplicate-storm", "4c7207d41147c7df91e22f7e2ed39cd6");
    ("leader-restart", "a3fd32b7d25ffa62af57daf766b86d59");
    ("restart-checkpoint", "25595c901f3e35893f8f6b7fe9f954db");
    ("restart-torn-tail", "3cd81337665606e70851d7cb3281e7d5");
    ("restart-storm", "407ff93792dbd914b9f62a50a4a3270e");
    ("overload-burst", "115bd8efec0c7ded64a099e8e6c5888a");
    ("slow-peer", "d13c1b31a5798260c2c0d23ed5cad449") ]

let test_sim_corpus_n4 () =
  List.iter
    (fun build ->
      let o = run_sim build ~n:4 in
      let name = o.Oracle.scenario.Scenario.name in
      let digest = Pin.digest render_outcome o in
      match List.assoc_opt name sim_pins_n4 with
      | Some pinned -> Alcotest.(check string) (name ^ " digest") pinned digest
      | None -> Alcotest.failf "no pinned digest for %s (%s)" name digest)
    Corpus.all

let test_sim_corpus_n16_spot () =
  ignore (run_sim Corpus.leader_crash ~n:16 : Oracle.outcome);
  ignore (run_sim Corpus.partition_quorum ~n:16 : Oracle.outcome)

(* -- determinism: same (seed, scenario) => byte-identical trace ---------- *)

let test_replay_is_byte_identical () =
  let a = Harness.run ~seed:7L Harness.Sim (Corpus.leader_crash ~n:4) in
  let b = Harness.run ~seed:7L Harness.Sim (Corpus.leader_crash ~n:4) in
  let c = Harness.run ~seed:8L Harness.Sim (Corpus.leader_crash ~n:4) in
  checkb "trace non-trivial" true (String.length a.Oracle.trace > 1000);
  checkb "same seed, identical trace" true (String.equal a.Oracle.trace b.Oracle.trace);
  checkb "identical confirmed count" true (a.Oracle.confirmed = b.Oracle.confirmed);
  checkb "different seed, different trace" false
    (String.equal a.Oracle.trace c.Oracle.trace)

(* -- both planes: faults must actually force a view change and recover -- *)

let vc_scenarios =
  [ Corpus.leader_crash; Corpus.partition_quorum; Corpus.slow_leader;
    Corpus.silence_leader ]

let assert_view_change_recovery (o : Oracle.outcome) =
  let name = o.Oracle.scenario.Scenario.name in
  if not (Oracle.outcome_ok o) then
    Alcotest.failf "%s %s failed:@.%a" o.Oracle.plane name Oracle.pp_verdict
      o.Oracle.verdict;
  checkb (o.Oracle.plane ^ " " ^ name ^ " left view 1") true (o.Oracle.final_view >= 2);
  checkb
    (o.Oracle.plane ^ " " ^ name ^ " resumed confirming after the fault")
    true
    (o.Oracle.confirmed > o.Oracle.confirmed_at_heal)

let test_view_change_sim () =
  List.iter
    (fun build -> assert_view_change_recovery (run_sim build ~n:4))
    vc_scenarios

let test_view_change_tcp () =
  List.iter
    (fun build -> assert_view_change_recovery (run_tcp (build ~n:4)))
    vc_scenarios

(* An event-free scenario heals at its first instant, so a TCP run that
   stopped as soon as 100 requests confirmed would check nothing; the
   early exit must wait at least a second past heal. *)
let test_tcp_event_free_runs_past_heal () =
  let o = run_tcp (Corpus.overload_burst ~n:4) in
  if not (Oracle.outcome_ok o) then
    Alcotest.failf "tcp overload-burst failed:@.%a" Oracle.pp_verdict o.Oracle.verdict;
  checkb "ran at least 1 s" true (o.Oracle.wall_sec >= 1.)

(* -- both planes: process restart must recover from the durable store ---- *)

let small_cfg =
  Core.Config.make ~n:4 ~alpha:10 ~bft_size:2 ~k:16 ~payload:64
    ~datablock_timeout:(Sim.Sim_time.ms 20) ~proposal_timeout:(Sim.Sim_time.ms 30)
    ~view_timeout:(Sim.Sim_time.ms 1500) ~fetch_grace:(Sim.Sim_time.ms 200)
    ~cost:Crypto.Cost_model.free ()

let restart_scenarios = [ Corpus.leader_restart; Corpus.restart_storm ]

let assert_restart_recovery (o : Oracle.outcome) =
  let name = o.Oracle.scenario.Scenario.name in
  if not (Oracle.outcome_ok o) then
    Alcotest.failf "%s %s failed:@.%a" o.Oracle.plane name Oracle.pp_verdict
      o.Oracle.verdict;
  checki (o.Oracle.plane ^ " " ^ name ^ " no double-vote evidence") 0
    o.Oracle.equivocations

let test_restart_sim () =
  List.iter
    (fun build -> assert_restart_recovery (run_sim build ~n:4))
    restart_scenarios

let test_restart_tcp () =
  List.iter
    (fun build -> assert_restart_recovery (run_tcp (build ~n:4)))
    restart_scenarios

(* The acceptance run in one test: confirm >= 1000 requests, process-kill
   a replica, recover it from its WAL directory, and require it to rejoin
   and re-converge on the same state hash. *)
let test_tcp_restart_catches_up () =
  let cl = Transport.Cluster.create ~cfg:small_cfg ~load:2000. () in
  Fun.protect
    ~finally:(fun () -> Transport.Cluster.close cl)
    (fun () ->
      let loop = Transport.Cluster.loop cl in
      Transport.Cluster.start_load cl;
      let deadline =
        Transport.Loop.now_ns loop + Int64.to_int (Sim.Sim_time.s 20)
      in
      Transport.Cluster.run_while cl (fun cl ->
          Transport.Cluster.confirmed cl < 1000
          && Transport.Loop.now_ns loop < deadline);
      checkb "confirmed >= 1000 before the restart" true
        (Transport.Cluster.confirmed cl >= 1000);
      Transport.Cluster.restart_replica cl 2;
      (* Load keeps flowing over the restart; the recovered replica must
         keep voting without forking. *)
      let go_until = Transport.Loop.now_ns loop + Int64.to_int (Sim.Sim_time.s 1) in
      Transport.Cluster.run_while cl (fun _ -> Transport.Loop.now_ns loop < go_until);
      Transport.Cluster.stop_load cl;
      let drain =
        Transport.Loop.now_ns loop + Int64.to_int (Sim.Sim_time.s 10)
      in
      Transport.Cluster.run_while cl (fun cl ->
          Transport.Loop.now_ns loop < drain
          && not (Transport.Cluster.state_converged cl));
      checkb "restarted replica converged to the same state hash" true
        (Transport.Cluster.state_converged cl);
      checkb "ledgers agree after the restart" true
        (Transport.Cluster.ledgers_agree cl);
      Array.iter
        (fun r ->
          checki "no equivocation evidence" 0
            (List.length
               (Core.Datablock_pool.equivocations (Core.Replica.pool r))))
        (Transport.Cluster.replicas cl))

(* -- TCP teardown hygiene ------------------------------------------------ *)

(* Per-run temp data directories must go with the cluster (the WAL dirs
   are part of teardown hygiene, like the fds). *)
let leopard_tmp_dirs () =
  let tmp = Filename.get_temp_dir_name () in
  Array.fold_left
    (fun acc name ->
      if String.length name >= 12 && String.equal (String.sub name 0 12) "leopard-data"
      then acc + 1
      else acc)
    0
    (try Sys.readdir tmp with Sys_error _ -> [||])

let live_fds () =
  match Sys.readdir "/proc/self/fd" with
  | fds -> Some (Array.length fds)
  | exception Sys_error _ -> None

let test_cluster_close_reaps_fds () =
  let baseline = ref None in
  let dirs_before = leopard_tmp_dirs () in
  for _round = 1 to 4 do
    let cl = Transport.Cluster.create ~cfg:small_cfg ~load:200. () in
    Transport.Cluster.start_load cl;
    let stop_at =
      Transport.Loop.now_ns (Transport.Cluster.loop cl)
      + Int64.to_int (Sim.Sim_time.ms 100)
    in
    Transport.Cluster.run_while cl (fun cl ->
        Transport.Loop.now_ns (Transport.Cluster.loop cl) < stop_at);
    Transport.Cluster.close cl;
    Transport.Cluster.close cl;
    (* idempotent *)
    checki "no leftover data directories" dirs_before (leopard_tmp_dirs ());
    match (live_fds (), !baseline) with
    | None, _ -> () (* no /proc: nothing to measure on this platform *)
    | Some n, None -> baseline := Some n
    | Some n, Some b ->
      if n > b + 2 then
        Alcotest.failf "fd leak across cluster teardown: %d -> %d" b n
  done

let test_cluster_close_after_kill () =
  (* Abnormal exit path: a replica marked down mid-run must not leave
     the teardown unable to reap the rest. *)
  let dirs_before = leopard_tmp_dirs () in
  let cl = Transport.Cluster.create ~cfg:small_cfg ~load:200. () in
  Transport.Cluster.start_load cl;
  Transport.Cluster.set_replica_down cl 2 true;
  let stop_at =
    Transport.Loop.now_ns (Transport.Cluster.loop cl)
    + Int64.to_int (Sim.Sim_time.ms 100)
  in
  Transport.Cluster.run_while cl (fun cl ->
      Transport.Loop.now_ns (Transport.Cluster.loop cl) < stop_at);
  Transport.Cluster.close cl;
  Transport.Cluster.close cl;
  checki "no leftover data directories after kill" dirs_before (leopard_tmp_dirs ());
  checkb "close survived a downed replica" true true

let () =
  Alcotest.run "faults"
    [ ( "injector",
        [ Alcotest.test_case "partition cuts groups" `Quick test_partition_cuts_groups;
          Alcotest.test_case "implicit group" `Quick test_unlisted_ids_form_implicit_group;
          Alcotest.test_case "rule matching" `Quick test_rule_matching;
          Alcotest.test_case "probabilistic determinism" `Quick
            test_probabilistic_rule_is_deterministic ] );
      ( "sim corpus",
        [ Alcotest.test_case "all scenarios pass at n=4" `Quick test_sim_corpus_n4;
          Alcotest.test_case "spot checks at n=16" `Slow test_sim_corpus_n16_spot;
          Alcotest.test_case "replay is byte-identical" `Quick
            test_replay_is_byte_identical ] );
      ( "view change",
        [ Alcotest.test_case "sim plane recovers via view change" `Quick
            test_view_change_sim;
          Alcotest.test_case "tcp plane recovers via view change" `Slow
            test_view_change_tcp ] );
      ( "early exit",
        [ Alcotest.test_case "event-free tcp scenario runs past heal" `Quick
            test_tcp_event_free_runs_past_heal ] );
      ( "restart",
        [ Alcotest.test_case "sim plane recovers from the store" `Quick
            test_restart_sim;
          Alcotest.test_case "tcp plane recovers from the store" `Slow
            test_restart_tcp;
          Alcotest.test_case "tcp restart catches up to the same state" `Quick
            test_tcp_restart_catches_up ] );
      ( "teardown",
        [ Alcotest.test_case "close reaps fds" `Quick test_cluster_close_reaps_fds;
          Alcotest.test_case "close after kill" `Quick test_cluster_close_after_kill ] )
    ]
