(* Unit and property tests for the measurement library. *)

open Sim

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf eps = Alcotest.(check (float eps))

(* -- Histogram -------------------------------------------------------------- *)

let test_histogram_empty () =
  let h = Stats.Histogram.create () in
  checki "count" 0 (Stats.Histogram.count h);
  checkb "mean nan" true (Float.is_nan (Stats.Histogram.mean h));
  checkb "quantile nan" true (Float.is_nan (Stats.Histogram.quantile h 0.5))

let test_histogram_exact_stats () =
  let h = Stats.Histogram.create () in
  List.iter (fun ms -> Stats.Histogram.record h (ms * 1_000_000)) [ 10; 20; 30; 40 ];
  checki "count" 4 (Stats.Histogram.count h);
  checkf 1e-9 "mean" 0.025 (Stats.Histogram.mean h);
  checkf 1e-9 "min" 0.010 (Stats.Histogram.min_value h);
  checkf 1e-9 "max" 0.040 (Stats.Histogram.max_value h)

let prop_histogram_quantile_error =
  QCheck.Test.make ~name:"quantile within ~4% of exact" ~count:50
    QCheck.(pair int64 (int_range 10 500))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let h = Stats.Histogram.create () in
      let samples = Array.init n (fun _ -> 1_000 + Rng.int rng 10_000_000) in
      Array.iter (fun us -> Stats.Histogram.record h (us * 1_000)) samples;
      Array.sort compare samples;
      let q = 0.9 in
      (* Rank conventions differ by up to one order statistic; accept the
         estimate between the neighbours of the exact rank, with the
         bucket's ~4% relative slack. *)
      let idx = max 0 (int_of_float (q *. float_of_int n) - 1) in
      let lower = float_of_int samples.(max 0 (idx - 1)) /. 1e6 in
      let upper = float_of_int samples.(min (n - 1) (idx + 1)) /. 1e6 in
      let est = Stats.Histogram.quantile h q in
      est >= lower *. 0.95 && est <= upper *. 1.05)

let test_histogram_merge () =
  let a = Stats.Histogram.create () and b = Stats.Histogram.create () in
  Stats.Histogram.record a 10_000_000;
  Stats.Histogram.record b 30_000_000;
  let m = Stats.Histogram.merge a b in
  checki "merged count" 2 (Stats.Histogram.count m);
  checkf 1e-9 "merged mean" 0.020 (Stats.Histogram.mean m)

let test_histogram_negative_clamped () =
  let h = Stats.Histogram.create () in
  Stats.Histogram.record h (-5);
  checkf 1e-9 "clamped to 0" 0. (Stats.Histogram.mean h)

(* The bucket formula the integer edges were derived from, kept here as
   the reference: floor (ln (v / 1000) / ln 1.04) + 1 above 1 us, capped
   at the last bucket. *)
let reference_bucket v =
  if v < 1_000 then 0
  else
    min (Stats.Histogram.num_buckets - 1)
      (int_of_float (log (float_of_int v /. 1_000.) /. log 1.04) + 1)

let test_histogram_edges_match_formula () =
  let mismatches = ref [] in
  let check v =
    let got = Stats.Histogram.bucket_of_ns v and want = reference_bucket v in
    if got <> want then mismatches := (v, got, want) :: !mismatches
  in
  for i = 1 to Stats.Histogram.num_buckets - 1 do
    let e = Stats.Histogram.bucket_lower i in
    check (e - 1);
    check e;
    check (e + 1)
  done;
  (* log-uniform over [1, 2^52): every bucket, including the open top *)
  let rng = Random.State.make [| 0x5eed |] in
  for _ = 1 to 200_000 do
    check (int_of_float (2. ** Random.State.float rng 52.))
  done;
  List.iter
    (fun (v, got, want) -> Printf.printf "v=%d: edge index %d, formula %d\n" v got want)
    !mismatches;
  checki "integer edges agree with the float formula" 0 (List.length !mismatches);
  checki "bucket 1 starts at 1 us" 1_000 (Stats.Histogram.bucket_lower 1)

(* -- Meter ------------------------------------------------------------------ *)

let test_meter_rate () =
  let m = Stats.Meter.create ~bin:(Sim_time.ms 100) () in
  (* 100 events/s for 10 s *)
  for i = 0 to 99 do
    Stats.Meter.add m ~at:(Sim_time.ms (i * 100)) 10
  done;
  checki "total" 1000 (Stats.Meter.total m);
  checkf 1.0 "steady rate" 100.
    (Stats.Meter.rate m ~from_:(Sim_time.s 2) ~until:(Sim_time.s 8));
  checki "window count" 100 (Stats.Meter.count_in m ~from_:(Sim_time.s 0) ~until:(Sim_time.ms 999))

let test_meter_empty_window () =
  let m = Stats.Meter.create () in
  Stats.Meter.add m ~at:Sim_time.zero 5;
  checkf 1e-9 "inverted window" 0. (Stats.Meter.rate m ~from_:(Sim_time.s 5) ~until:(Sim_time.s 5))

let test_meter_first_event () =
  let m = Stats.Meter.create ~bin:(Sim_time.ms 100) () in
  checkb "none" true (Stats.Meter.first_event m = None);
  Stats.Meter.add m ~at:(Sim_time.ms 250) 1;
  (match Stats.Meter.first_event m with
   | Some t -> Alcotest.(check int64) "bin start" (Sim_time.ms 200) t
   | None -> Alcotest.fail "expected first event")

(* -- Series ------------------------------------------------------------------ *)

let test_series () =
  let s = Stats.Series.create ~name:"tput" in
  Stats.Series.add s ~x:4. ~y:100.;
  Stats.Series.add s ~x:8. ~y:50.;
  Alcotest.(check (list (pair (float 0.) (float 0.))))
    "points" [ (4., 100.); (8., 50.) ] (Stats.Series.points s);
  checkb "y_at hit" true (Stats.Series.y_at s ~x:8. = Some 50.);
  checkb "y_at miss" true (Stats.Series.y_at s ~x:9. = None)

let test_series_render () =
  let a = Stats.Series.create ~name:"A" and b = Stats.Series.create ~name:"B" in
  Stats.Series.add a ~x:1. ~y:10.;
  Stats.Series.add a ~x:2. ~y:20.;
  Stats.Series.add b ~x:1. ~y:1.;
  let out = Stats.Series.render_table ~x_label:"n" [ a; b ] in
  checkb "has header" true (String.length out > 0);
  (* row for x=2 has a dash for the missing B value *)
  let lines = String.split_on_char '\n' out in
  checkb "missing rendered as dash" true
    (List.exists (fun l -> String.length l > 0 && l.[0] = '2' && String.contains l '-') lines)

(* -- Text table ------------------------------------------------------------------ *)

let test_text_table () =
  let out =
    Stats.Text_table.render ~headers:[ "n"; "throughput" ]
      [ [ "32"; "200000" ]; [ "600"; "99000" ] ]
  in
  let lines = String.split_on_char '\n' out in
  checki "rows + header + rule" 4 (List.length lines);
  checkb "aligned" true
    (String.length (List.nth lines 0) >= String.length "n  throughput")

let test_text_table_kv () =
  let out = Stats.Text_table.render_kv [ ("alpha", "2000"); ("k", "32") ] in
  checkb "two lines" true (List.length (String.split_on_char '\n' out) = 2)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "stats"
    [ ( "histogram",
        [ Alcotest.test_case "empty" `Quick test_histogram_empty;
          Alcotest.test_case "exact stats" `Quick test_histogram_exact_stats;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          Alcotest.test_case "negative clamped" `Quick test_histogram_negative_clamped;
          Alcotest.test_case "integer edges match the float formula" `Quick
            test_histogram_edges_match_formula ]
        @ qsuite [ prop_histogram_quantile_error ] );
      ( "meter",
        [ Alcotest.test_case "rate" `Quick test_meter_rate;
          Alcotest.test_case "empty window" `Quick test_meter_empty_window;
          Alcotest.test_case "first event" `Quick test_meter_first_event ] );
      ( "series",
        [ Alcotest.test_case "points" `Quick test_series;
          Alcotest.test_case "render" `Quick test_series_render ] );
      ( "text table",
        [ Alcotest.test_case "render" `Quick test_text_table;
          Alcotest.test_case "kv" `Quick test_text_table_kv ] ) ]
