(* Benchmark process: runs one workload once and prints its result as a
   JSON object on the last line of standard output.

     main.exe --workload sim-scale|tcp-fanout|tcp-durable --seed N
              --seconds S --trace 0|1 [--spans FILE]
     main.exe --knee --seconds S

   With --trace 0 the metrics are the end-to-end ones; with --trace 1
   spans are recorded and the per-layer metrics follow them. --knee runs
   the diagnostic rate ladder on the tcp-fanout configuration. *)

open Perfbench

let run_workload ~workload ~seed ~seconds ~spans =
  match workload with
  | "sim-scale" -> Sim_scale.run ~spans Sim_scale.paper ~seed
  | "tcp-fanout" -> Tcp_bench.run ~spans Tcp_bench.fanout ~seed ~seconds
  | "tcp-durable" -> Tcp_bench.run ~spans Tcp_bench.durable ~seed ~seconds
  | w -> invalid_arg ("unknown workload " ^ w)

(* Trace bookkeeping: the root span's self time is what no phase span
   covers. *)
let trace_metrics spans =
  let self = Span.self_times spans in
  let wall = float_of_int (Span.duration spans 0) in
  [ ("trace.spans", float_of_int (Span.length spans), "count");
    ("trace.unattributed_share", Outcome.ratio (float_of_int self.(0)) wall, "ratio") ]

(* The diagnostic knee sweep: the tcp-fanout configuration at a ladder of
   rates. A rate passes when p99 latency stays within 250 ms and the
   backlog drains within 1 s of the load stopping. Not gated. *)
let knee ~seconds =
  Printf.printf "host: Domain.recommended_domain_count %d, OCaml %s\n"
    (Domain.recommended_domain_count ()) Sys.ocaml_version;
  Printf.printf "%10s %10s %10s %10s %8s %s\n" "rate" "p50_ms" "p99_ms" "drain_s" "cpu_us" "pass";
  let best = ref 0. in
  List.iter
    (fun rate ->
      let p = { Tcp_bench.fanout with rate; reps = 1; drain_bound_s = 10. } in
      let r, layers = Tcp_bench.run p ~seed:1 ~seconds in
      let get name l = List.find_map (fun (k, v, _) -> if k = name then Some v else None) l in
      let p50 = Option.get (get "latency_p50_ms" r.Outcome.metrics)
      and p99 = Option.get (get "latency_p99_ms" r.Outcome.metrics)
      and cpu = Option.get (get "cpu_us_per_req" r.Outcome.metrics)
      and drain = Option.get (get "client.drain_s" layers) in
      let pass = r.Outcome.correct && p99 <= 250. && drain <= 1. in
      if pass && rate > !best then best := rate;
      Printf.printf "%10.0f %10.1f %10.1f %10.2f %8.1f %b\n%!" rate p50 p99 drain cpu pass)
    [ 20_000.; 35_000.; 50_000.; 70_000.; 100_000.; 130_000.; 160_000.; 200_000. ];
  Printf.printf "knee: highest passing rate %.0f req/s\n" !best

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let spans_out = ref "" and knee_mode = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S load seconds (TCP workloads)");
      ("--trace", Arg.Set_int trace, "0|1 record spans, report per-layer metrics");
      ("--spans", Arg.Set_string spans_out, "FILE write the recorded spans here");
      ("--knee", Arg.Set knee_mode, " run the diagnostic knee sweep") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !knee_mode then knee ~seconds:!seconds
  else begin
    let spans = Span.create ~enabled:(!trace = 1) in
    let r, layers = run_workload ~workload:!workload ~seed:!seed ~seconds:!seconds ~spans in
    let r =
      if !trace = 1 then { r with Outcome.metrics = r.Outcome.metrics @ layers @ trace_metrics spans }
      else r
    in
    if !trace = 1 && !spans_out <> "" then Span.write spans !spans_out;
    Outcome.print r
  end
