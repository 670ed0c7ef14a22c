(* Obs: the unified metrics registry. Counter/gauge/histogram semantics,
   idempotent registration, multi-domain histogram hammering (the
   per-domain shards must merge losslessly), collect hooks, and the exposition
   format — including the guarantee the sim plane leans on: scraping is
   read-only, so two scrapes of an idle registry are byte-identical. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* -- instrument semantics ----------------------------------------------- *)

let test_counter () =
  let reg = Obs.Registry.create () in
  let c = Obs.Registry.counter reg "c_total" in
  checki "fresh" 0 (Obs.Counter.value c);
  Obs.Counter.incr c;
  Obs.Counter.incr c;
  Obs.Counter.add c 40;
  checki "incr+add" 42 (Obs.Counter.value c)

let test_gauge () =
  let reg = Obs.Registry.create () in
  let g = Obs.Registry.gauge reg "g" in
  checki "fresh" 0 (Obs.Gauge.value g);
  Obs.Gauge.set g 17;
  Obs.Gauge.add g (-20);
  checki "set+add goes negative" (-3) (Obs.Gauge.value g)

let test_histogram_buckets () =
  let reg = Obs.Registry.create () in
  let h = Obs.Registry.histogram reg "h_ns" in
  checki "fresh count" 0 (Obs.Histogram.count h);
  (* geometric buckets: b0 = [0, 1000), b1 = [1000, 1040),
     b2 = [1040, 1082), b3 = [1082, 1125) *)
  let values = [ 0; 999; 1000; 1039; 1040; 1081; 1082; -5 ] in
  List.iter (Obs.Histogram.record h) values;
  checki "count" 8 (Obs.Histogram.count h);
  checki "sum (negatives clamp to 0)" (0 + 999 + 1000 + 1039 + 1040 + 1081 + 1082 + 0)
    (Obs.Histogram.sum h);
  let s = Obs.Histogram.snapshot h in
  checki "bucket 0 = {0,999,clamped -5}" 3 (Stats.Histogram.bucket s 0);
  checki "bucket 1 = {1000,1039}" 2 (Stats.Histogram.bucket s 1);
  checki "bucket 2 = {1040,1081}" 2 (Stats.Histogram.bucket s 2);
  checki "bucket 3 = {1082}" 1 (Stats.Histogram.bucket s 3)

(* Five domains record the same values into one histogram; the merged
   shards must report exactly what one single-domain Stats.Histogram fed
   every value reports: no lost updates, bit-identical quantiles. *)
let test_histogram_multidomain () =
  let reg = Obs.Registry.create () in
  let h = Obs.Registry.histogram reg "hammer_ns" in
  let per_domain = 100_000 in
  let value i = i * 7919 mod 50_000_000 in
  let hammer () =
    for i = 1 to per_domain do
      Obs.Histogram.record h (value i)
    done
  in
  let ds = Array.init 4 (fun _ -> Domain.spawn hammer) in
  hammer ();
  Array.iter Domain.join ds;
  let single = Stats.Histogram.create () in
  for _ = 1 to 5 do
    for i = 1 to per_domain do
      Stats.Histogram.record single (value i)
    done
  done;
  let merged = Obs.Histogram.snapshot h in
  checki "merged count" (5 * per_domain) (Obs.Histogram.count h);
  checki "merged sum" (Stats.Histogram.sum_ns single) (Obs.Histogram.sum h);
  let same name f = checkb name true (Float.equal (f merged) (f single)) in
  same "mean" Stats.Histogram.mean;
  same "min" Stats.Histogram.min_value;
  same "max" Stats.Histogram.max_value;
  List.iter
    (fun q -> same (Printf.sprintf "q%.3f" q) (fun s -> Stats.Histogram.quantile s q))
    [ 0.; 0.01; 0.25; 0.5; 0.9; 0.99; 0.999; 1. ]

(* -- registry ----------------------------------------------------------- *)

let test_idempotent_registration () =
  let reg = Obs.Registry.create () in
  let c1 = Obs.Registry.counter reg ~labels:[ ("id", "3") ] "c_total" in
  let c2 = Obs.Registry.counter reg ~labels:[ ("id", "3") ] "c_total" in
  Obs.Counter.incr c1;
  Obs.Counter.incr c2;
  (* same name+labels = the same instrument (replica recovery re-attaches) *)
  checki "one instrument" 2 (Obs.Counter.value c1);
  let c3 = Obs.Registry.counter reg ~labels:[ ("id", "4") ] "c_total" in
  checki "different labels, fresh instrument" 0 (Obs.Counter.value c3);
  checkb "kind mismatch raises" true
    (try
       ignore (Obs.Registry.gauge reg ~labels:[ ("id", "3") ] "c_total");
       false
     with Invalid_argument _ -> true)

let test_collect_hook () =
  let reg = Obs.Registry.create () in
  let g = Obs.Registry.gauge reg "depth" in
  let source = ref 0 in
  Obs.Registry.on_collect reg (fun () -> Obs.Gauge.set g !source);
  source := 5;
  let text = Obs.Registry.expose reg in
  checkb "gauge refreshed at scrape" true (String.length text > 0 && Obs.Gauge.value g = 5);
  source := 9;
  ignore (Obs.Registry.expose reg : string);
  checki "hook re-runs each scrape" 9 (Obs.Gauge.value g)

(* -- exposition --------------------------------------------------------- *)

let test_expose_golden () =
  let reg = Obs.Registry.create () in
  let c = Obs.Registry.counter reg ~help:"Things done." "things_total" in
  let g = Obs.Registry.gauge reg "depth" in
  let c2 = Obs.Registry.counter reg ~labels:[ ("id", "1") ] "acks_total" in
  let h = Obs.Registry.histogram reg "lat_ns" in
  Obs.Counter.add c 3;
  Obs.Gauge.set g 7;
  Obs.Counter.incr c2;
  (* buckets 1 = [1000, 1040), 2 = [1040, 1082), 3 = [1082, 1125):
     lines run from the lowest occupied bucket to the highest *)
  List.iter (Obs.Histogram.record h) [ 1000; 1039; 1100 ];
  let expected =
    String.concat "\n"
      [ "# TYPE acks_total counter";
        "acks_total{id=\"1\"} 1";
        "# TYPE depth gauge";
        "depth 7";
        "# TYPE lat_ns histogram";
        "lat_ns_bucket{le=\"1039\"} 2";
        "lat_ns_bucket{le=\"1081\"} 2";
        "lat_ns_bucket{le=\"1124\"} 3";
        "lat_ns_bucket{le=\"+Inf\"} 3";
        "lat_ns_sum 3139";
        "lat_ns_count 3";
        "# HELP things_total Things done.";
        "# TYPE things_total counter";
        "things_total 3";
        "" ]
  in
  checks "golden exposition" expected (Obs.Registry.expose reg)

let test_expose_idempotent () =
  let reg = Obs.Registry.create () in
  let c = Obs.Registry.counter reg "events_total" in
  let h = Obs.Registry.histogram reg ~labels:[ ("id", "0") ] "lat_ns" in
  Obs.Counter.add c 11;
  List.iter (Obs.Histogram.record h) [ 3; 9; 27; 81 ];
  let a = Obs.Registry.expose reg in
  let b = Obs.Registry.expose reg in
  checks "scrape is read-only: two idle scrapes byte-identical" a b

let test_dump_file () =
  let path = Filename.temp_file "obs" ".prom" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let reg = Obs.Registry.create () in
      Obs.Counter.add (Obs.Registry.counter reg "x_total") 5;
      Obs.Registry.dump_file reg path;
      let ic = open_in_bin path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      checks "dump = expose" (Obs.Registry.expose reg) text)

let () =
  Alcotest.run "obs"
    [ ( "instruments",
        [ Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "histogram 5-domain hammer" `Quick test_histogram_multidomain ] );
      ( "registry",
        [ Alcotest.test_case "idempotent registration" `Quick test_idempotent_registration;
          Alcotest.test_case "collect hook" `Quick test_collect_hook ] );
      ( "exposition",
        [ Alcotest.test_case "golden output" `Quick test_expose_golden;
          Alcotest.test_case "idempotent scrape" `Quick test_expose_idempotent;
          Alcotest.test_case "dump file" `Quick test_dump_file ] ) ]
