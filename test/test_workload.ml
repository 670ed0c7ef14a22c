(* Unit tests for the client workload substrate. *)

open Sim

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* -- Request ---------------------------------------------------------------- *)

let mk ?(id = 1) ?(count = 10) ?(size = 128) () =
  Workload.Request.make ~id ~count ~size_each:size ~born:Sim_time.zero ()

let test_request_sizes () =
  let b = mk () in
  checki "payload" 1280 (Workload.Request.payload_bytes b);
  checkb "wire > payload" true (Workload.Request.wire_bytes b > 1280)

let test_request_confirmation_shared_with_resend () =
  let b = mk () in
  let copy = Workload.Request.resend_of b in
  checkb "copy tagged" true copy.Workload.Request.resend;
  checkb "not confirmed" false (Workload.Request.is_confirmed b);
  Workload.Request.mark_confirmed copy;
  checkb "original confirmed through copy" true (Workload.Request.is_confirmed b)

let test_request_hash_distinct () =
  let a = mk ~id:1 () and b = mk ~id:2 () in
  checkb "distinct ids distinct hashes" false
    (Crypto.Hash.equal (Workload.Request.hash a) (Workload.Request.hash b))

(* -- Assign ------------------------------------------------------------------ *)

let test_assign_excludes_leader () =
  for key = 0 to 50 do
    let rs = Workload.Assign.replicas_for ~n:10 ~s:3 ~leader:4 ~key in
    checki "s replicas" 3 (List.length rs);
    checki "distinct" 3 (List.length (List.sort_uniq Int.compare rs));
    checkb "no leader" false (List.mem 4 rs);
    List.iter (fun r -> checkb "range" true (r >= 0 && r < 10)) rs
  done

let test_assign_deterministic () =
  let a = Workload.Assign.replicas_for ~n:31 ~s:5 ~leader:0 ~key:123 in
  let b = Workload.Assign.replicas_for ~n:31 ~s:5 ~leader:0 ~key:123 in
  checkb "same key same answer" true (a = b)

let test_honest_hit_probability () =
  (* The paper: s = 9 gives > 99.99% that one replica is honest when
     fewer than 1/3 of candidates are Byzantine. *)
  let p = Workload.Assign.honest_hit_probability ~s:9 ~f:333 ~n:1000 in
  checkb "paper's 99.99% claim" true (p > 0.9999);
  Alcotest.(check (float 1e-9)) "s > f is certain" 1.0
    (Workload.Assign.honest_hit_probability ~s:4 ~f:3 ~n:10);
  let p1 = Workload.Assign.honest_hit_probability ~s:1 ~f:3 ~n:10 in
  Alcotest.(check (float 1e-9)) "s=1 exact" (1. -. (3. /. 9.)) p1

(* -- Generator ----------------------------------------------------------------- *)

let test_generator_rate_and_targets () =
  let e = Engine.create () in
  let received = Hashtbl.create 8 in
  let submitted = ref 0 in
  let gen =
    Workload.Generator.start (Workload.Generator.engine_clock e)
      ~rate:1000. ~payload:64 ~targets:[ 1; 2; 3 ]
      ~inject:(fun ~dst ~size:_ cb ->
        Hashtbl.replace received dst (1 + Option.value ~default:0 (Hashtbl.find_opt received dst));
        cb ())
      ~submit:(fun ~target:_ b -> submitted := !submitted + b.Workload.Request.count)
      ~until:(Sim_time.s 2) ()
  in
  Engine.run ~until:(Sim_time.s 3) e;
  let offered = Workload.Generator.offered gen in
  checkb "~2000 requests" true (offered >= 1900 && offered <= 2100);
  checki "all submitted" offered !submitted;
  checki "three targets hit" 3 (Hashtbl.length received)

let test_generator_stop () =
  let e = Engine.create () in
  let gen =
    Workload.Generator.start (Workload.Generator.engine_clock e)
      ~rate:1000. ~payload:64 ~targets:[ 0 ]
      ~inject:(fun ~dst:_ ~size:_ cb -> cb ())
      ~submit:(fun ~target:_ _ -> ())
      ()
  in
  ignore (Engine.schedule e ~delay:(Sim_time.s 1) (fun () -> Workload.Generator.stop gen));
  Engine.run ~until:(Sim_time.s 5) e;
  let offered = Workload.Generator.offered gen in
  checkb "stopped early" true (offered < 1200)

let test_generator_batches_recorded () =
  let e = Engine.create () in
  let gen =
    Workload.Generator.start (Workload.Generator.engine_clock e)
      ~rate:100. ~payload:64 ~targets:[ 0 ]
      ~inject:(fun ~dst:_ ~size:_ cb -> cb ())
      ~submit:(fun ~target:_ _ -> ())
      ~until:(Sim_time.s 1) ()
  in
  Engine.run ~until:(Sim_time.s 2) e;
  let batches = Workload.Generator.batches gen in
  checkb "batches recorded" true (List.length batches > 0);
  let total = List.fold_left (fun a b -> a + b.Workload.Request.count) 0 batches in
  checki "batches cover offered" (Workload.Generator.offered gen) total

let test_generator_make_batch () =
  let e = Engine.create () in
  let gen =
    Workload.Generator.start (Workload.Generator.engine_clock e)
      ~rate:0. ~payload:64 ~targets:[ 0 ]
      ~inject:(fun ~dst:_ ~size:_ cb -> cb ())
      ~submit:(fun ~target:_ _ -> ())
      ()
  in
  let id0 = Workload.Generator.next_batch_id gen in
  let b = Workload.Generator.make_batch gen ~at:Sim_time.zero ~count:5 () in
  checki "id assigned" id0 b.Workload.Request.id;
  checki "offered counted" 5 (Workload.Generator.offered gen);
  checki "next id advanced" (id0 + 1) (Workload.Generator.next_batch_id gen)

(* -- Tally ------------------------------------------------------------- *)

let test_tally_fires_once_at_f_plus_1 () =
  let t = Workload.Tally.create ~f_plus_1:3 () in
  let reports = List.init 6 (fun _ -> Workload.Tally.executed t ~sn:1) in
  Alcotest.(check (list bool)) "fires at the third report only"
    [ false; false; true; false; false; false ] reports;
  checki "one serial" 1 (Workload.Tally.serials t);
  checkb "another serial counts apart" false (Workload.Tally.executed t ~sn:2);
  checki "still one serial" 1 (Workload.Tally.serials t)

let test_tally_prune_below () =
  let t = Workload.Tally.create ~f_plus_1:2 () in
  ignore (Workload.Tally.executed t ~sn:4 : bool);
  ignore (Workload.Tally.executed t ~sn:6 : bool);
  Workload.Tally.prune_below t 5;
  checki "watermark" 5 (Workload.Tally.pruned_below t);
  (* A late report at or below the watermark never restarts a count. *)
  List.iter
    (fun sn ->
      checkb "pruned serial ignored" false (Workload.Tally.executed t ~sn);
      checkb "pruned serial ignored again" false (Workload.Tally.executed t ~sn))
    [ 1; 4; 5 ];
  checki "nothing fired below the watermark" 0 (Workload.Tally.serials t);
  (* A lower watermark is a no-op; serials above keep their counts. *)
  Workload.Tally.prune_below t 3;
  checki "watermark kept" 5 (Workload.Tally.pruned_below t);
  checkb "count above the watermark survives" true (Workload.Tally.executed t ~sn:6)

let test_tally_counts_each_batch_once () =
  let t = Workload.Tally.create ~f_plus_1:1 () in
  let b = Workload.Request.make ~id:7 ~count:10 ~size_each:4 ~born:(Sim_time.ms 1) () in
  let copy = Workload.Request.resend_of b in
  let decoded = Option.get (Core.Codec.decode_batch (Core.Codec.encode_batch b)) in
  checkb "decoded copy has fresh refs" false (decoded.Workload.Request.confirmed == b.confirmed);
  let at = Sim_time.ms 5 in
  checkb "first copy counts" true (Workload.Tally.confirm t ~at b);
  checkb "resend copy does not" false (Workload.Tally.confirm t ~at copy);
  checkb "decoded copy does not" false (Workload.Tally.confirm t ~at decoded);
  checkb "original again does not" false (Workload.Tally.confirm t ~at b);
  checki "requests counted once" 10 (Workload.Tally.confirmed t);
  checki "one latency sample" 1 (Stats.Histogram.count (Workload.Tally.latency t))

let test_tally_confirmed_matches_histogram () =
  let t = Workload.Tally.create ~f_plus_1:1 () in
  let reg = Obs.Registry.create () in
  let o = Workload.Tally.create ~f_plus_1:1 ~obs:reg () in
  let batches = List.init 50 (fun i -> (i mod 20, 1 + (i mod 3))) in
  List.iter
    (fun (id, count) ->
      let b = Workload.Request.make ~id ~count ~size_each:8 ~born:Sim_time.zero () in
      let at = Sim_time.ms (id + 1) in
      ignore (Workload.Tally.confirm t ~at b : bool);
      ignore (Workload.Tally.confirm o ~at b : bool))
    batches;
  let requests = List.fold_left (fun acc i -> acc + 1 + (i mod 3)) 0 (List.init 20 Fun.id) in
  checki "confirmed requests" requests (Workload.Tally.confirmed t);
  checki "one sample per batch" 20 (Stats.Histogram.count (Workload.Tally.latency t));
  checki "instrumented tally agrees" requests (Workload.Tally.confirmed o);
  let prom = Obs.Registry.expose reg in
  let has sub =
    let n = String.length sub in
    let rec at i = i + n <= String.length prom && (String.sub prom i n = sub || at (i + 1)) in
    at 0
  in
  checkb "latency instrument" true (has "leopard_confirm_latency_ns_count 20");
  checkb "confirmed instrument" true
    (has (Printf.sprintf "leopard_confirmed_requests_total %d" requests))

let () =
  Alcotest.run "workload"
    [ ( "request",
        [ Alcotest.test_case "sizes" `Quick test_request_sizes;
          Alcotest.test_case "resend shares confirmation" `Quick
            test_request_confirmation_shared_with_resend;
          Alcotest.test_case "hash distinct" `Quick test_request_hash_distinct ] );
      ( "assign",
        [ Alcotest.test_case "excludes leader" `Quick test_assign_excludes_leader;
          Alcotest.test_case "deterministic" `Quick test_assign_deterministic;
          Alcotest.test_case "honest hit probability" `Quick test_honest_hit_probability ] );
      ( "generator",
        [ Alcotest.test_case "rate and targets" `Quick test_generator_rate_and_targets;
          Alcotest.test_case "stop" `Quick test_generator_stop;
          Alcotest.test_case "batches recorded" `Quick test_generator_batches_recorded;
          Alcotest.test_case "make_batch" `Quick test_generator_make_batch ] );
      ( "tally",
        [ Alcotest.test_case "fires once at f+1" `Quick test_tally_fires_once_at_f_plus_1;
          Alcotest.test_case "prune below watermark" `Quick test_tally_prune_below;
          Alcotest.test_case "each batch once" `Quick test_tally_counts_each_batch_once;
          Alcotest.test_case "confirmed matches histogram" `Quick
            test_tally_confirmed_matches_histogram ] ) ]
