(* Integration tests: full Leopard clusters on the simulated network.

   Safety (Theorem 5.3) and liveness (Theorem 5.4) are checked end-to-end
   under honest runs, silent/equivocating/censoring Byzantine replicas,
   leader failure with view change, and pre-GST adversarial delays. *)

open Sim

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* A small, fast cluster configuration: liveness tails are flushed by the
   partial-pack and short-timer paths. *)
let small_cfg ?(n = 4) ?(k = 16) ?(view_timeout = Sim_time.s 2) () =
  Core.Config.make ~n ~alpha:10 ~bft_size:2 ~k ~payload:64
    ~datablock_timeout:(Sim_time.ms 200) ~proposal_timeout:(Sim_time.ms 300) ~view_timeout
    ~fetch_grace:(Sim_time.ms 200) ~cost:Crypto.Cost_model.free ()

let run_spec ?(load = 400.) ?(duration = 12) ?(load_until = 6) ?byzantine ?stop_leader_at
    ?client_resend_timeout ?gst ?(seed = 42L) ?verify_domains cfg =
  Core.Runner.spec ~cfg ~seed ~load ~duration:(Sim_time.s duration)
    ~warmup:(Sim_time.s 2) ~load_until:(Sim_time.s load_until)
    ?byzantine ?stop_leader_at ?client_resend_timeout ?gst ?verify_domains ()

(* -- Honest runs -------------------------------------------------------------- *)

let test_honest_liveness_and_safety () =
  let r = Core.Runner.run (run_spec (small_cfg ())) in
  checkb "safety" true r.Core.Runner.safety_ok;
  checkb "all requests confirmed" true r.Core.Runner.all_confirmed;
  checki "confirmed = offered" r.Core.Runner.offered r.Core.Runner.confirmed;
  checkb "throughput positive" true (r.Core.Runner.throughput > 0.);
  checkb "blocks executed" true (r.Core.Runner.executed_blocks > 0);
  checki "no view change" 1 r.Core.Runner.final_view;
  checkb "latency recorded" true (Stats.Histogram.count r.Core.Runner.latency > 0)

let test_honest_larger_cluster () =
  let r = Core.Runner.run (run_spec ~load:2000. (small_cfg ~n:13 ())) in
  checkb "safety" true r.Core.Runner.safety_ok;
  checkb "liveness" true r.Core.Runner.all_confirmed

let test_deterministic_replay () =
  let a = Core.Runner.run (run_spec ~seed:7L (small_cfg ())) in
  let b = Core.Runner.run (run_spec ~seed:7L (small_cfg ())) in
  checki "same confirmed" a.Core.Runner.confirmed b.Core.Runner.confirmed;
  checki "same blocks" a.Core.Runner.executed_blocks b.Core.Runner.executed_blocks;
  checki "same leader bytes" a.Core.Runner.leader.Core.Runner.sent_bytes
    b.Core.Runner.leader.Core.Runner.sent_bytes

(* Stronger than spot-checking a few fields: two runs of the same spec
   and seed must produce reports that are indistinguishable down to the
   last histogram bucket and bandwidth category (the report is pure data,
   so a marshalled byte comparison covers every field at once). Guards
   the event engine, heap, RNG and NIC rewrites against any source of
   nondeterminism. *)
let test_deterministic_report_bytes () =
  let spec = run_spec ~seed:13L ~client_resend_timeout:(Sim_time.s 1) (small_cfg ()) in
  let a = Core.Runner.run spec in
  let b = Core.Runner.run spec in
  checkb "byte-identical reports" true
    (String.equal (Marshal.to_string a []) (Marshal.to_string b []))

(* Metrics are observation-only: attaching a registry must not perturb
   the simulation in any way — the report stays byte-for-byte what the
   unobserved run produces, while the registry still captures the run
   (per-replica commit counters, the confirm-latency histogram). *)
let test_metrics_do_not_perturb_report () =
  let bare = run_spec ~seed:13L ~client_resend_timeout:(Sim_time.s 1) (small_cfg ()) in
  let reg = Obs.Registry.create () in
  let observed = { bare with Core.Runner.obs = Some reg } in
  let a = Core.Runner.run bare in
  let b = Core.Runner.run observed in
  checkb "observed run byte-identical to bare run" true
    (String.equal (Marshal.to_string a []) (Marshal.to_string b []));
  let text = Obs.Registry.expose reg in
  let contains sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length text && (String.sub text i n = sub || go (i + 1)) in
    go 0
  in
  checkb "registry saw replica commits" true (contains "leopard_replica_commits_total");
  checkb "registry saw confirmations" true (contains "leopard_confirm_latency_ns_count");
  checkb "confirm histogram non-empty" true
    (not (contains "leopard_confirm_latency_ns_count 0\n"))

(* Determinism under parallelism: routing the heavy crypto through an
   Exec.Pool of 1, 2 or 4 worker domains (Verify.blocking dispatch) must
   leave the report byte-for-byte what the inline run produces — the
   workers compute the same pure verdicts, and completion points are
   unchanged. Any cross-domain leak (memo tearing, event reordering)
   shows up as a byte difference here. *)
let test_pool_size_determinism () =
  let report_bytes verify_domains =
    let spec =
      run_spec ~seed:13L ~client_resend_timeout:(Sim_time.s 1) ?verify_domains (small_cfg ())
    in
    Marshal.to_string (Core.Runner.run spec) []
  in
  let inline = report_bytes None in
  List.iter
    (fun d ->
      checkb
        (Printf.sprintf "%d-domain pool byte-identical to inline" d)
        true
        (String.equal inline (report_bytes (Some d))))
    [ 1; 2; 4 ]

let test_latency_breakdown_components () =
  let r = Core.Runner.run (run_spec (small_cfg ())) in
  let names = List.map fst r.Core.Runner.stage_seconds in
  List.iter
    (fun c -> checkb (c ^ " present") true (List.mem c names))
    [ "Datablock Generation"; "Datablock Delivery"; "Agreement"; "Response to Client" ]

let test_bandwidth_accounting_shape () =
  let r = Core.Runner.run (run_spec (small_cfg ())) in
  let recv = r.Core.Runner.leader.Core.Runner.received_by_category in
  let datablock_bytes = try List.assoc "datablock" recv with Not_found -> 0 in
  checkb "leader receives datablocks" true (datablock_bytes > 0);
  let sent = r.Core.Runner.leader.Core.Runner.sent_by_category in
  checkb "leader sends proposals" true (List.mem_assoc "proposal" sent);
  (* The decoupling: the leader's proposal egress stays below the
     datablock volume it ingests (β/α of the payload at real α; the
     margin is modest at this test's tiny α = 10). *)
  let proposal_bytes = List.assoc "proposal" sent in
  checkb "proposals smaller than datablocks" true (proposal_bytes < datablock_bytes)

(* -- Byzantine: silent (omission) ------------------------------------------------ *)

let test_silent_f_still_live () =
  let cfg = small_cfg ~n:7 () in
  let r = Core.Runner.run (run_spec ~load:800. ~byzantine:(Core.Runner.silent_f cfg) cfg) in
  checkb "safety with f silent" true r.Core.Runner.safety_ok;
  checkb "liveness with f silent" true r.Core.Runner.all_confirmed

let test_too_many_silent_stalls () =
  (* f + 1 silent replicas exceed the resilience bound: no progress (but
     never a safety violation). *)
  let cfg = small_cfg ~n:4 () in
  let byzantine = [ (2, Core.Byzantine.Silent); (3, Core.Byzantine.Silent) ] in
  let r = Core.Runner.run (run_spec ~byzantine cfg) in
  checki "nothing confirmed" 0 r.Core.Runner.confirmed;
  checkb "safety still holds" true r.Core.Runner.safety_ok

(* -- Byzantine: equivocating datablocks ------------------------------------------ *)

let test_equivocator_detected_and_contained () =
  let cfg = small_cfg ~n:4 () in
  let r =
    Core.Runner.run
      (run_spec ~duration:16
         ~byzantine:[ (0, Core.Byzantine.Equivocate_datablocks) ]
         ~client_resend_timeout:(Sim_time.s 1) cfg)
  in
  checkb "safety under equivocation" true r.Core.Runner.safety_ok;
  checkb "equivocation evidence collected" true (r.Core.Runner.equivocations_detected > 0);
  checkb "liveness via re-sends" true r.Core.Runner.all_confirmed

(* -- Byzantine: censorship -------------------------------------------------------- *)

let test_censor_defeated_by_resend () =
  let cfg = small_cfg ~n:4 () in
  let r =
    Core.Runner.run
      (run_spec ~duration:16 ~byzantine:[ (0, Core.Byzantine.Censor) ]
         ~client_resend_timeout:(Sim_time.s 1) cfg)
  in
  checkb "safety" true r.Core.Runner.safety_ok;
  checkb "censored requests recovered" true r.Core.Runner.all_confirmed

let test_censor_without_resend_loses () =
  (* A resend timeout longer than the run means clients do target the
     censor (they cannot tell it is Byzantine) but never re-send. *)
  let cfg = small_cfg ~n:4 () in
  let r =
    Core.Runner.run
      (run_spec ~byzantine:[ (0, Core.Byzantine.Censor) ]
         ~client_resend_timeout:(Sim_time.s 3600) cfg)
  in
  checkb "some requests censored" false r.Core.Runner.all_confirmed;
  checkb "others still confirm" true (r.Core.Runner.confirmed > 0)

(* -- View change ------------------------------------------------------------------- *)

let test_view_change_on_leader_failure () =
  let cfg = small_cfg ~n:4 ~view_timeout:(Sim_time.s 1) () in
  let r =
    Core.Runner.run
      (run_spec ~duration:25 ~load_until:10 ~stop_leader_at:(Sim_time.s 4)
         ~client_resend_timeout:(Sim_time.s 1) cfg)
  in
  checkb "entered a later view" true (r.Core.Runner.final_view >= 2);
  checkb "safety across views" true r.Core.Runner.safety_ok;
  checkb "liveness restored by new leader" true r.Core.Runner.all_confirmed;
  (match r.Core.Runner.vc_trigger_to_entry with
   | Some seconds -> checkb "view change completes in seconds" true (seconds < 15.)
   | None -> Alcotest.fail "view-change duration not measured");
  checkb "view-change bytes accounted" true (r.Core.Runner.vc_bytes > 0)

let test_view_change_crash_strategy () =
  (* Crash via the Byzantine strategy rather than the runner switch. *)
  let cfg = small_cfg ~n:4 ~view_timeout:(Sim_time.s 1) () in
  let leader = Core.Config.leader_of_view cfg 1 in
  let r =
    Core.Runner.run
      (run_spec ~duration:25 ~load_until:10
         ~byzantine:[ (leader, Core.Byzantine.Crash_at (Sim_time.s 4)) ]
         ~client_resend_timeout:(Sim_time.s 1) cfg)
  in
  checkb "view advanced" true (r.Core.Runner.final_view >= 2);
  checkb "safety" true r.Core.Runner.safety_ok;
  checkb "liveness" true r.Core.Runner.all_confirmed

let test_two_consecutive_leader_failures () =
  (* Leaders of views 1 and 2 both crash: two view changes are needed. *)
  let cfg = small_cfg ~n:7 ~view_timeout:(Sim_time.s 1) () in
  let l1 = Core.Config.leader_of_view cfg 1 in
  let l2 = Core.Config.leader_of_view cfg 2 in
  let r =
    Core.Runner.run
      (run_spec ~duration:35 ~load_until:8 ~load:500.
         ~byzantine:
           [ (l1, Core.Byzantine.Crash_at (Sim_time.s 3));
             (l2, Core.Byzantine.Crash_at (Sim_time.s 3)) ]
         ~client_resend_timeout:(Sim_time.s 1) cfg)
  in
  checkb "reached view 3+" true (r.Core.Runner.final_view >= 3);
  checkb "safety" true r.Core.Runner.safety_ok;
  checkb "liveness" true r.Core.Runner.all_confirmed

(* -- Partial synchrony --------------------------------------------------------------- *)

let test_pre_gst_reordering_safe_and_live () =
  let cfg = small_cfg ~n:4 () in
  let r =
    Core.Runner.run (run_spec ~duration:20 ~load_until:8 ~gst:(Sim_time.s 5) cfg)
  in
  checkb "safety through asynchrony" true r.Core.Runner.safety_ok;
  checkb "liveness after GST" true r.Core.Runner.all_confirmed

let prop_safety_under_random_faults =
  QCheck.Test.make ~name:"safety holds for random seeds and fault mixes" ~count:8
    QCheck.(pair int64 (int_range 0 2))
    (fun (seed, mix) ->
      let cfg = small_cfg ~n:7 () in
      let byzantine =
        match mix with
        | 0 -> Core.Runner.silent_f cfg
        | 1 -> [ (2, Core.Byzantine.Equivocate_datablocks); (3, Core.Byzantine.Silent) ]
        | _ -> [ (2, Core.Byzantine.Censor); (3, Core.Byzantine.Crash_at (Sim_time.s 3)) ]
      in
      let r =
        Core.Runner.run
          (run_spec ~seed ~duration:10 ~load_until:5 ~load:600. ~byzantine
             ~client_resend_timeout:(Sim_time.s 1) cfg)
      in
      r.Core.Runner.safety_ok)

(* -- Protocol internals through the incremental interface ----------------------------- *)

let test_watermarks_bound_parallelism () =
  let cfg = small_cfg ~n:4 ~k:4 () in
  let t = Core.Runner.create (run_spec ~load:2000. cfg) in
  Core.Runner.run_until t (Sim_time.s 6);
  let leader = Core.Config.leader_of_view cfg 1 in
  let r = (Core.Runner.replicas t).(leader) in
  let highest = Core.Ledger.highest_confirmed (Core.Replica.ledger r) in
  let lw = Core.Replica.low_watermark r in
  checkb "confirmed serials within window of lw" true (highest <= lw + cfg.Core.Config.k)

let test_checkpoints_advance_watermark () =
  let cfg = small_cfg ~n:4 ~k:8 () in
  let t = Core.Runner.create (run_spec ~load:2000. ~duration:12 ~load_until:10 cfg) in
  Core.Runner.run_until t (Sim_time.s 12);
  let r = (Core.Runner.replicas t).(0) in
  checkb "lw advanced by checkpoints" true (Core.Replica.low_watermark r > 0)

let test_notar_cache_bounded () =
  (* The verified-notarization cache is the one table-shaped memo in the
     replica; view changes feed it, and the cap must hold afterwards. *)
  let cfg = small_cfg ~n:4 ~view_timeout:(Sim_time.s 1) () in
  let t =
    Core.Runner.create
      (run_spec ~duration:20 ~load_until:8 ~stop_leader_at:(Sim_time.s 4)
         ~client_resend_timeout:(Sim_time.s 1) cfg)
  in
  Core.Runner.run_until t (Sim_time.s 20);
  let seen = ref 0 in
  Array.iter
    (fun r ->
      let len = Core.Replica.notar_cache_len r in
      seen := !seen + len;
      checkb "notar cache within cap" true (len <= Core.Replica.notar_cache_cap))
    (Core.Runner.replicas t);
  checkb "view change exercised the cache" true (!seen > 0)

let test_state_hash_agreement () =
  let cfg = small_cfg ~n:4 () in
  let t = Core.Runner.create (run_spec cfg) in
  Core.Runner.run_until t (Sim_time.s 12);
  let replicas = Core.Runner.replicas t in
  let executed = Array.map (fun r -> Core.Ledger.executed_up_to (Core.Replica.ledger r)) replicas in
  let all_equal = Array.for_all (fun e -> e = executed.(0)) executed in
  if all_equal then begin
    let h0 = Core.Replica.state_hash replicas.(0) in
    Array.iter
      (fun r -> checkb "state hashes agree" true (Crypto.Hash.equal h0 (Core.Replica.state_hash r)))
      replicas
  end

let test_datablock_generation_excludes_leader () =
  let cfg = small_cfg ~n:4 () in
  let t = Core.Runner.create (run_spec cfg) in
  Core.Runner.run_until t (Sim_time.s 8);
  let leader = Core.Config.leader_of_view cfg 1 in
  checki "leader generates no datablocks" 0
    (Core.Replica.datablocks_created (Core.Runner.replicas t).(leader));
  checkb "non-leader generates datablocks" true
    (Core.Replica.datablocks_created (Core.Runner.replicas t).((leader + 1) mod 4) > 0)

let test_equivocator_punished () =
  let cfg =
    Core.Config.make ~n:4 ~alpha:10 ~bft_size:2 ~k:16 ~payload:64
      ~datablock_timeout:(Sim_time.ms 200) ~proposal_timeout:(Sim_time.ms 300)
      ~view_timeout:(Sim_time.s 2) ~cost:Crypto.Cost_model.free ~punish_equivocators:true ()
  in
  let t =
    Core.Runner.create
      (run_spec ~duration:16
         ~byzantine:[ (0, Core.Byzantine.Equivocate_datablocks) ]
         ~client_resend_timeout:(Sim_time.s 1) cfg)
  in
  Core.Runner.run_until t (Sim_time.s 16);
  let r = Core.Runner.report t in
  checkb "safety" true r.Core.Runner.safety_ok;
  (* every honest replica that saw both variants kicked the creator out *)
  let punishers =
    List.filter
      (fun id -> List.mem 0 (Core.Replica.punished (Core.Runner.replicas t).(id)))
      (Core.Runner.honest_ids t)
  in
  checkb "someone punished the equivocator" true (punishers <> []);
  checkb "liveness (re-sends route around the outcast)" true r.Core.Runner.all_confirmed

let test_client_fanout_counts_once () =
  (* s = 3: every batch lands at three replicas; duplicates confirm but
     each request is counted once. *)
  let cfg =
    Core.Config.make ~n:7 ~alpha:10 ~bft_size:2 ~k:16 ~payload:64 ~s:3
      ~datablock_timeout:(Sim_time.ms 200) ~proposal_timeout:(Sim_time.ms 300)
      ~cost:Crypto.Cost_model.free ()
  in
  let r = Core.Runner.run (run_spec ~load:600. cfg) in
  checkb "safety" true r.Core.Runner.safety_ok;
  checkb "no double counting" true (r.Core.Runner.confirmed <= r.Core.Runner.offered);
  checkb "liveness" true r.Core.Runner.all_confirmed

let test_pure_algorithm1_packing () =
  (* datablock_timeout = 0: datablocks carry exactly >= alpha requests
     (no partial packs). Steady state must still confirm. *)
  let cfg =
    Core.Config.make ~n:4 ~alpha:20 ~bft_size:2 ~k:16 ~payload:64 ~datablock_timeout:0L
      ~proposal_timeout:0L ~cost:Crypto.Cost_model.free ()
  in
  let r = Core.Runner.run (run_spec ~load:2000. ~duration:10 ~load_until:10 cfg) in
  checkb "safety" true r.Core.Runner.safety_ok;
  checkb "steady-state throughput" true (r.Core.Runner.throughput > 1000.)

let test_lagging_replica_catches_up () =
  (* Replica 3 is isolated by the adversary for 6 s; checkpoints bring it
     back via state transfer and the cluster never stalls. *)
  let cfg = small_cfg ~n:4 () in
  let t = Core.Runner.create (run_spec ~duration:16 ~load_until:8 cfg) in
  let rng = Rng.split (Engine.rng (Core.Runner.engine t)) in
  Net.Network.set_extra_delay (Core.Runner.network t)
    (Net.Partial_sync.combine
       [ Net.Partial_sync.target_node ~gst:(Sim_time.s 6) ~victim:3 ~delay:(Sim_time.s 2);
         Net.Partial_sync.until_gst ~rng ~gst:Sim_time.zero ~max_delay:0L ]);
  Core.Runner.run_until t (Sim_time.s 16);
  let r = Core.Runner.report t in
  checkb "safety" true r.Core.Runner.safety_ok;
  checkb "liveness" true r.Core.Runner.all_confirmed;
  let lagger = (Core.Runner.replicas t).(3) in
  checkb "lagger caught up" true
    (Core.Ledger.executed_up_to (Core.Replica.ledger lagger) > 0)

let test_optimistic_responsiveness () =
  (* §5.2: with an honest leader after GST, confirmation latency is a
     small multiple of the actual network delay δ (~7δ), not of any
     timeout. Run with instant packing (α = 1 request) at two values of
     δ and check the latency is a one-digit multiple of δ that scales
     with it. *)
  let run delta_ms =
    let cfg =
      Core.Config.make ~n:4 ~alpha:1 ~bft_size:1 ~k:64 ~payload:64
        ~proposal_timeout:(Sim_time.ms 1) ~cost:Crypto.Cost_model.free ()
    in
    let link =
      Net.Network.
        { out_bps = 1e9; in_bps = 1e9; prop_delay = Sim_time.ms delta_ms; jitter = 0L; lanes = 1 }
    in
    let sp =
      Core.Runner.spec ~cfg ~link ~load:50. ~duration:(Sim_time.s 10) ~warmup:(Sim_time.s 1)
        ~load_until:(Sim_time.s 8) ()
    in
    let r = Core.Runner.run sp in
    checkb "safety" true r.Core.Runner.safety_ok;
    Stats.Histogram.quantile r.Core.Runner.latency 0.5
  in
  let lat10 = run 10 and lat40 = run 40 in
  checkb "latency is a few delta (10ms)" true (lat10 > 0.03 && lat10 < 0.1);
  checkb "latency is a few delta (40ms)" true (lat40 > 0.12 && lat40 < 0.4);
  checkb "scales with delta, not with a timeout" true (lat40 > 2.5 *. lat10)

let test_single_channel_still_correct () =
  (* The ablation knob must not affect correctness, only performance. *)
  let cfg =
    Core.Config.make ~n:4 ~alpha:10 ~bft_size:2 ~payload:64
      ~datablock_timeout:(Sim_time.ms 200) ~proposal_timeout:(Sim_time.ms 300)
      ~fetch_grace:(Sim_time.ms 200) ~cost:Crypto.Cost_model.free ~priority_channels:false ()
  in
  let r = Core.Runner.run (run_spec cfg) in
  checkb "safety" true r.Core.Runner.safety_ok;
  checkb "liveness" true r.Core.Runner.all_confirmed

let test_leader_generates_datablocks_still_correct () =
  let cfg =
    Core.Config.make ~n:4 ~alpha:10 ~bft_size:2 ~payload:64
      ~datablock_timeout:(Sim_time.ms 200) ~proposal_timeout:(Sim_time.ms 300)
      ~fetch_grace:(Sim_time.ms 200) ~cost:Crypto.Cost_model.free
      ~leader_generates_datablocks:true ()
  in
  let t = Core.Runner.create (run_spec cfg) in
  Core.Runner.run_until t (Sim_time.s 12);
  let r = Core.Runner.report t in
  checkb "safety" true r.Core.Runner.safety_ok;
  checkb "liveness" true r.Core.Runner.all_confirmed;
  let leader = Core.Config.leader_of_view cfg 1 in
  checkb "leader produced datablocks" true
    (Core.Replica.datablocks_created (Core.Runner.replicas t).(leader) > 0)

(* -- Durable store: the sim-plane side of PR 8 --------------------------- *)

(* Wiring in-memory durable stores must not perturb the protocol at all:
   the sink is written to synchronously off the hot path and never read
   until a recovery. Pinned as a full-report byte comparison, like the
   verify-pool determinism test above. *)
let test_mem_store_report_identical () =
  let bytes stores =
    let spec =
      Core.Runner.spec ~cfg:(small_cfg ()) ~seed:13L ~load:400.
        ~duration:(Sim_time.s 12) ~warmup:(Sim_time.s 2) ~load_until:(Sim_time.s 6)
        ~client_resend_timeout:(Sim_time.s 1) ?stores ()
    in
    Marshal.to_string (Core.Runner.run spec) []
  in
  let without = bytes None in
  let with_mem = bytes (Some (Array.init 4 (fun _ -> Core.Store.mem ()))) in
  checkb "mem-store report byte-identical to null-store" true
    (String.equal without with_mem)

(* Executed-link bookkeeping is pruned with the pool at each checkpoint,
   so snapshots stay bounded by the watermark window instead of growing
   with run length: every saved snapshot holds only serials above its
   own low watermark. *)
let test_snapshot_executed_links_above_lw () =
  let saved = ref [] in
  let recording () =
    let inner = Core.Store.mem () in
    { inner with
      Core.Store.save =
        (fun s ->
          saved := s :: !saved;
          inner.Core.Store.save s) }
  in
  let spec =
    Core.Runner.spec ~cfg:(small_cfg ()) ~seed:13L ~load:400. ~duration:(Sim_time.s 12)
      ~warmup:(Sim_time.s 2) ~load_until:(Sim_time.s 6)
      ~stores:(Array.init 4 (fun _ -> recording ())) ()
  in
  ignore (Core.Runner.run spec);
  checkb "snapshots past the first checkpoint" true
    (List.exists (fun s -> s.Core.Store.snap_lw > 0) !saved);
  checkb "some snapshot still holds executed links" true
    (List.exists (fun s -> s.Core.Store.snap_executed_links <> []) !saved);
  List.iter
    (fun (s : Core.Store.snapshot) ->
      List.iter
        (fun (_, sn) ->
          if sn <= s.snap_lw then
            Alcotest.failf "snapshot at lw=%d keeps executed link of sn%d" s.snap_lw sn)
        s.snap_executed_links)
    !saved

(* The vote-safety heart of recovery: restart a replica after it emitted
   a prepare share (and before the notarization settles), then re-deliver
   the same proposal. The recovered replica must answer with the very
   same share — deterministic threshold shares make the repeat vote
   bit-identical, so no equivocation evidence can form against it. *)
let test_restart_resends_same_share () =
  let stores = Array.init 4 (fun _ -> Core.Store.mem ()) in
  let spec =
    Core.Runner.spec ~cfg:(small_cfg ()) ~seed:21L ~load:400.
      ~duration:(Sim_time.s 12) ~warmup:(Sim_time.s 1) ~load_until:(Sim_time.s 8)
      ~stores ()
  in
  let t = Core.Runner.create spec in
  let network = Core.Runner.network t in
  let victim = 0 in
  let leader = 1 in
  let votes : (int, Crypto.Threshold.share list) Hashtbl.t = Hashtbl.create 16 in
  let proposes : (int, Core.Msg.t) Hashtbl.t = Hashtbl.create 16 in
  Net.Network.set_fault_hook network (fun ~now:_ ~src ~dst msg ->
      (match msg with
      | Core.Msg.Prepare_vote { sn; share; _ } when src = victim ->
        Hashtbl.replace votes sn
          (share :: Option.value ~default:[] (Hashtbl.find_opt votes sn))
      | Core.Msg.Propose { block; _ } when dst = victim ->
        Hashtbl.replace proposes block.Core.Bftblock.sn msg
      | _ -> ());
      Net.Network.Pass);
  (* Advance in small steps until the victim has voted on a proposal we
     captured — mid-agreement, before that serial's checkpoint. *)
  let cursor = ref Sim_time.zero in
  let voted_sn () =
    Hashtbl.fold
      (fun sn _ acc ->
        if Hashtbl.mem proposes sn then Some sn else acc)
      votes None
  in
  while voted_sn () = None && Sim_time.compare !cursor (Sim_time.s 8) < 0 do
    cursor := Sim_time.(!cursor + ms 250);
    Core.Runner.run_until t !cursor
  done;
  let sn =
    match voted_sn () with
    | Some sn -> sn
    | None -> Alcotest.fail "victim never voted within 8 simulated seconds"
  in
  let shares_before = Hashtbl.find votes sn in
  (* Process restart: in-memory agreement state is gone, the store
     remains. *)
  Core.Runner.restart_replica t victim;
  Net.Network.send network ~src:leader ~dst:victim (Hashtbl.find proposes sn);
  cursor := Sim_time.(!cursor + s 1);
  Core.Runner.run_until t !cursor;
  let shares_after = Hashtbl.find votes sn in
  Net.Network.clear_fault_hook network;
  checkb "recovered replica re-voted" true
    (List.length shares_after > List.length shares_before);
  let raw = Crypto.Threshold.share_raw in
  List.iter
    (fun s ->
      checkb "every share for the serial is bit-identical" true
        (raw s = raw (List.hd shares_before)))
    shares_after;
  (* And the cluster as a whole never collected double-vote evidence. *)
  Array.iter
    (fun r ->
      checki "no equivocation evidence" 0
        (List.length (Core.Datablock_pool.equivocations (Core.Replica.pool r))))
    (Core.Runner.replicas t)

(* -- Pinned reports ---------------------------------------------------------- *)

(* The report rendered for {!Pin.digest}: every field. *)
let render_report b (r : Core.Runner.report) =
  let line fmt = Pin.line b fmt in
  let view name (v : Core.Runner.bandwidth_view) =
    line "%s sent=%d received=%d" name v.sent_bytes v.received_bytes;
    List.iter (fun (c, n) -> line "%s sent %s=%d" name c n) v.sent_by_category;
    List.iter (fun (c, n) -> line "%s recv %s=%d" name c n) v.received_by_category
  in
  line "n=%d offered=%d confirmed=%d" r.n r.offered r.confirmed;
  line "throughput=%h goodput=%h leader_bps=%h window=%h" r.throughput r.goodput_bps
    r.leader_bps r.window_sec;
  Pin.latency b r.latency;
  List.iter (fun (stage, secs) -> line "stage %s=%h" stage secs) r.stage_seconds;
  view "leader" r.leader;
  view "non_leader" r.non_leader;
  line "executed_blocks=%d view_changes=%d final_view=%d" r.executed_blocks r.view_changes
    r.final_view;
  (match r.vc_trigger_to_entry with
   | Some s -> line "vc_trigger_to_entry=%h" s
   | None -> line "vc_trigger_to_entry=none");
  line "vc_bytes=%d equivocations=%d all_confirmed=%b safety=%b" r.vc_bytes
    r.equivocations_detected r.all_confirmed r.safety_ok

(* The configuration and run of [leopard_cli run] with its defaults. *)
let cli_spec ?(silent = false) ?stop_leader_at ?client_resend_timeout n =
  let cfg =
    Core.Config.make ~n ~payload:128 ~datablock_timeout:(Sim_time.ms 500)
      ~proposal_timeout:(Sim_time.ms 500) ()
  in
  let byzantine = if silent then Core.Runner.silent_f cfg else [] in
  Core.Runner.spec ~cfg ~seed:42L ~load:50_000. ~duration:(Sim_time.s 15)
    ~warmup:(Sim_time.s 4) ~byzantine ?stop_leader_at ?client_resend_timeout ()

(* Pins simulated behaviour across commits, where the byte-identical
   tests above only compare two runs of one build. A change that moves
   any simulated outcome moves a digest; re-pinning is a deliberate,
   recorded act. *)
let test_pinned_report_digests () =
  List.iter
    (fun (name, spec, pinned) ->
      let digest = Pin.digest render_report (Core.Runner.run spec) in
      Alcotest.(check string) name pinned digest)
    [ ("n=16 honest", cli_spec 16, "846549b264ce33c78c321271ffc9e7a9");
      ("n=64 f silent", cli_spec ~silent:true 64, "edfdcd52552c323a05980b42fa898a83");
      ( "n=16 leader stop + resend",
        cli_spec ~stop_leader_at:(Sim_time.s 3) ~client_resend_timeout:(Sim_time.s 1) 16,
        "5c2dea6f73f207a40c2fb6c5c36cf769" ) ]

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "leopard"
    [ ( "honest",
        [ Alcotest.test_case "liveness & safety" `Quick test_honest_liveness_and_safety;
          Alcotest.test_case "larger cluster" `Slow test_honest_larger_cluster;
          Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
          Alcotest.test_case "byte-identical reports" `Quick test_deterministic_report_bytes;
          Alcotest.test_case "metrics observation-only (byte-identical)" `Quick
            test_metrics_do_not_perturb_report;
          Alcotest.test_case "pool sizes 1/2/4 byte-identical" `Quick
            test_pool_size_determinism;
          Alcotest.test_case "pinned report digests" `Quick test_pinned_report_digests;
          Alcotest.test_case "latency breakdown" `Quick test_latency_breakdown_components;
          Alcotest.test_case "bandwidth shape" `Quick test_bandwidth_accounting_shape ] );
      ( "silent faults",
        [ Alcotest.test_case "f silent live" `Quick test_silent_f_still_live;
          Alcotest.test_case "f+1 silent stalls safely" `Quick test_too_many_silent_stalls ] );
      ( "equivocation",
        [ Alcotest.test_case "detected & contained" `Quick test_equivocator_detected_and_contained;
          Alcotest.test_case "punished (kicked out)" `Quick test_equivocator_punished ] );
      ( "extensions",
        [ Alcotest.test_case "client fanout s=3 counts once" `Quick
            test_client_fanout_counts_once;
          Alcotest.test_case "pure Algorithm 1 packing" `Quick test_pure_algorithm1_packing;
          Alcotest.test_case "lagging replica catches up" `Quick
            test_lagging_replica_catches_up;
          Alcotest.test_case "optimistic responsiveness" `Quick
            test_optimistic_responsiveness;
          Alcotest.test_case "single channel still correct" `Quick
            test_single_channel_still_correct;
          Alcotest.test_case "leader-generates still correct" `Quick
            test_leader_generates_datablocks_still_correct ] );
      ( "censorship",
        [ Alcotest.test_case "defeated by re-send" `Quick test_censor_defeated_by_resend;
          Alcotest.test_case "without re-send loses" `Quick test_censor_without_resend_loses ] );
      ( "view change",
        [ Alcotest.test_case "leader failure" `Quick test_view_change_on_leader_failure;
          Alcotest.test_case "crash strategy" `Quick test_view_change_crash_strategy;
          Alcotest.test_case "two consecutive failures" `Slow test_two_consecutive_leader_failures ] );
      ( "partial synchrony",
        [ Alcotest.test_case "pre-GST reordering" `Quick test_pre_gst_reordering_safe_and_live ]
        @ qsuite [ prop_safety_under_random_faults ] );
      ( "durable store",
        [ Alcotest.test_case "mem store keeps reports byte-identical" `Quick
            test_mem_store_report_identical;
          Alcotest.test_case "snapshot executed links above lw" `Quick
            test_snapshot_executed_links_above_lw;
          Alcotest.test_case "restart re-sends the same prepare share" `Quick
            test_restart_resends_same_share ] );
      ( "internals",
        [ Alcotest.test_case "watermarks bound parallelism" `Quick test_watermarks_bound_parallelism;
          Alcotest.test_case "checkpoints advance lw" `Quick test_checkpoints_advance_watermark;
          Alcotest.test_case "state hash agreement" `Quick test_state_hash_agreement;
          Alcotest.test_case "notar cache bounded" `Quick test_notar_cache_bounded;
          Alcotest.test_case "leader excluded from datablocks" `Quick
            test_datablock_generation_excludes_leader ] ) ]
