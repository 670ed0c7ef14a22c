(* Unit and property tests for the discrete-event simulation engine. *)

open Sim

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* -- Sim_time ----------------------------------------------------------- *)

let test_time_units () =
  check Alcotest.int64 "us" 1_000L (Sim_time.us 1);
  check Alcotest.int64 "ms" 1_000_000L (Sim_time.ms 1);
  check Alcotest.int64 "s" 1_000_000_000L (Sim_time.s 1);
  check Alcotest.int64 "of_sec" 1_500_000_000L (Sim_time.of_sec 1.5);
  Alcotest.(check (float 1e-9)) "to_sec roundtrip" 2.25 (Sim_time.to_sec (Sim_time.of_sec 2.25))

let test_time_arith () =
  let t = Sim_time.(zero + ms 5) in
  check Alcotest.int64 "add" 5_000_000L t;
  check Alcotest.int64 "sub" 3_000_000L Sim_time.(t - ms 2);
  checkb "compare" true (Sim_time.compare t Sim_time.zero > 0);
  check Alcotest.int64 "min" Sim_time.zero (Sim_time.min t Sim_time.zero);
  check Alcotest.int64 "max" t (Sim_time.max t Sim_time.zero)

(* -- Heap --------------------------------------------------------------- *)

let test_heap_ordering () =
  let h = Heap.create () in
  Heap.add h ~key:5L ~seq:0 "e";
  Heap.add h ~key:1L ~seq:1 "a";
  Heap.add h ~key:3L ~seq:2 "c";
  Heap.add h ~key:2L ~seq:3 "b";
  Heap.add h ~key:4L ~seq:4 "d";
  let order = ref [] in
  let rec drain () =
    match Heap.pop_min h with
    | Some (_, _, v) ->
      order := v :: !order;
      drain ()
    | None -> ()
  in
  drain ();
  check Alcotest.(list string) "sorted" [ "a"; "b"; "c"; "d"; "e" ] (List.rev !order)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  for i = 0 to 9 do
    Heap.add h ~key:7L ~seq:i i
  done;
  let out = ref [] in
  let rec drain () =
    match Heap.pop_min h with
    | Some (_, _, v) ->
      out := v :: !out;
      drain ()
    | None -> ()
  in
  drain ();
  check Alcotest.(list int) "ties are FIFO" (List.init 10 Fun.id) (List.rev !out)

let test_heap_peek () =
  let h = Heap.create () in
  checkb "empty peek" true (Heap.peek_min h = None);
  Heap.add h ~key:9L ~seq:0 "x";
  (match Heap.peek_min h with
   | Some (9L, 0, "x") -> ()
   | Some _ | None -> Alcotest.fail "bad peek");
  checki "peek keeps" 1 (Heap.length h)

(* 10k random add/pop interleavings, mixing the int64 and unboxed int-ns
   insertion paths, checked pop-by-pop against a reference model: every
   pop must return exactly the model's (key, seq) minimum. *)
let test_heap_random_vs_model () =
  let rng = Rng.create 1234L in
  let h = Heap.create () in
  let model = ref [] in
  let next_seq = ref 0 in
  let cmp (k1, s1) (k2, s2) =
    match Int64.compare k1 k2 with 0 -> Int.compare s1 s2 | c -> c
  in
  let model_min () = List.fold_left (fun a x -> if cmp x a < 0 then x else a) (List.hd !model) !model in
  let pop_check () =
    match Heap.pop_min h with
    | None -> Alcotest.fail "heap empty while model is not"
    | Some (k, s, ()) ->
      let mk, ms = model_min () in
      checkb "pop matches model min" true (Int64.equal k mk && s = ms);
      model := List.filter (fun (_, s') -> s' <> ms) !model
  in
  for _ = 1 to 10_000 do
    if !model = [] || Rng.int rng 3 < 2 then begin
      let k = Int64.of_int (Rng.int rng 1_000) in
      let seq = !next_seq in
      incr next_seq;
      if Rng.bool rng then Heap.add h ~key:k ~seq ()
      else Heap.add_ns h ~key_ns:(Int64.to_int k) ~seq ();
      model := (k, seq) :: !model
    end
    else pop_check ()
  done;
  while !model <> [] do
    pop_check ()
  done;
  checkb "heap drained with model" true (Heap.is_empty h)

(* Popping must clear the vacated slot: a heap that retains a reference
   to a popped value is a space leak at millions of events per run. *)
let test_heap_pop_releases_value () =
  let h = Heap.create () in
  let w = Weak.create 1 in
  (let v = Bytes.make 64 'x' in
   Weak.set w 0 (Some v);
   Heap.add h ~key:1L ~seq:0 (Some v));
  (* a survivor, so the heap's arrays stay live and non-empty *)
  Heap.add h ~key:2L ~seq:1 None;
  (match Heap.pop_min h with
   | Some (1L, 0, Some _) -> ()
   | _ -> Alcotest.fail "expected the weak-tracked entry first");
  Gc.full_major ();
  Gc.full_major ();
  checkb "popped value reclaimed" true (Weak.get w 0 = None);
  checki "survivor retained" 1 (Heap.length h)

(* Keys are ints; the int64 wrapper refuses one that would wrap. *)
let test_heap_rejects_wide_key () =
  let h = Heap.create () in
  Alcotest.check_raises "above max_int"
    (Invalid_argument "Heap.add: key does not fit an int") (fun () ->
      Heap.add h ~key:Int64.max_int ~seq:0 ());
  Heap.add h ~key:(Int64.of_int min_int) ~seq:1 ();
  checkb "min_int accepted" true (Heap.peek_min h = Some (Int64.of_int min_int, 1, ()))

let prop_heap_sorted =
  (* Keys span the whole int range (the heap's key domain), negatives
     included. *)
  QCheck.Test.make ~name:"heap drains sorted" ~count:200
    QCheck.(list (pair (map Int64.of_int int) small_nat))
    (fun pairs ->
      let h = Heap.create () in
      List.iteri (fun i (k, _) -> Heap.add h ~key:k ~seq:i ()) pairs;
      let rec drain last =
        match Heap.pop_min h with
        | None -> true
        | Some (k, _, ()) -> Int64.compare last k <= 0 && drain k
      in
      drain Int64.min_int)

(* -- Rng ---------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 99L and b = Rng.create 99L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 5L in
  let c = Rng.split a in
  (* The split stream differs from the parent's continuation. *)
  checkb "differs" true (Rng.int64 c <> Rng.int64 a)

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int in bounds and non-negative" ~count:500
    QCheck.(pair int64 (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_rng_float_bounds =
  QCheck.Test.make ~name:"Rng.float in bounds" ~count:500 QCheck.int64 (fun seed ->
      let rng = Rng.create seed in
      let v = Rng.float rng 3.5 in
      v >= 0. && v < 3.5)

let test_rng_sample_without_replacement () =
  let rng = Rng.create 11L in
  for _ = 1 to 50 do
    let k = 1 + Rng.int rng 10 in
    let n = k + Rng.int rng 20 in
    let sample = Rng.sample_without_replacement rng k n in
    checki "size" k (List.length sample);
    checki "distinct" k (List.length (List.sort_uniq Int.compare sample));
    List.iter (fun v -> checkb "in range" true (v >= 0 && v < n)) sample
  done

let test_rng_exponential_positive () =
  let rng = Rng.create 3L in
  for _ = 1 to 100 do
    checkb "positive" true (Rng.exponential rng ~mean:2.0 >= 0.)
  done

(* -- Engine ------------------------------------------------------------- *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~delay:(Sim_time.ms 3) (fun () -> log := 3 :: !log));
  ignore (Engine.schedule e ~delay:(Sim_time.ms 1) (fun () -> log := 1 :: !log));
  ignore (Engine.schedule e ~delay:(Sim_time.ms 2) (fun () -> log := 2 :: !log));
  Engine.run e;
  check Alcotest.(list int) "order" [ 1; 2; 3 ] (List.rev !log)

let test_engine_clock_advances () =
  let e = Engine.create () in
  let seen = ref Sim_time.zero in
  ignore (Engine.schedule e ~delay:(Sim_time.ms 7) (fun () -> seen := Engine.now e));
  Engine.run e;
  check Alcotest.int64 "clock at callback" (Sim_time.ms 7) !seen

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~delay:(Sim_time.ms 1) (fun () -> fired := true) in
  Engine.cancel e h;
  Engine.run e;
  checkb "cancelled does not fire" false !fired

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule e ~delay:(Sim_time.ms 1) (fun () -> incr fired));
  ignore (Engine.schedule e ~delay:(Sim_time.ms 100) (fun () -> incr fired));
  Engine.run ~until:(Sim_time.ms 10) e;
  checki "only early event" 1 !fired;
  check Alcotest.int64 "clock clamped to until" (Sim_time.ms 10) (Engine.now e);
  Engine.run e;
  checki "late event still fires" 2 !fired

let test_engine_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 0 to 4 do
    ignore (Engine.schedule e ~delay:(Sim_time.ms 1) (fun () -> log := i :: !log))
  done;
  Engine.run e;
  check Alcotest.(list int) "fifo" [ 0; 1; 2; 3; 4 ] (List.rev !log)

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~delay:(Sim_time.ms 1) (fun () ->
         log := "outer" :: !log;
         ignore (Engine.schedule e ~delay:(Sim_time.ms 1) (fun () -> log := "inner" :: !log))));
  Engine.run e;
  check Alcotest.(list string) "nested" [ "outer"; "inner" ] (List.rev !log);
  check Alcotest.int64 "final clock" (Sim_time.ms 2) (Engine.now e)

let test_engine_max_events () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    ignore (Engine.schedule e ~delay:(Sim_time.ms 1) tick)
  in
  ignore (Engine.schedule e ~delay:(Sim_time.ms 1) tick);
  Engine.run ~max_events:50 e;
  checki "bounded" 50 !count

let test_engine_negative_delay_clamped () =
  let e = Engine.create () in
  let at = ref (-1L) in
  ignore (Engine.schedule e ~delay:(Sim_time.ms 5) (fun () ->
      ignore (Engine.schedule e ~delay:(-50L) (fun () -> at := Engine.now e))));
  Engine.run e;
  check Alcotest.int64 "clamped to now" (Sim_time.ms 5) !at

(* -- Trace -------------------------------------------------------------- *)

let test_trace_basic () =
  let tr = Trace.create () in
  Trace.record tr ~at:Sim_time.zero ~tag:"a" "one";
  Trace.recordf tr ~at:(Sim_time.ms 1) ~tag:"b" "%d" 42;
  checki "length" 2 (Trace.length tr);
  checki "find" 1 (List.length (Trace.find tr ~tag:"a"));
  checki "count" 1 (Trace.count tr ~tag:"b");
  (match Trace.find tr ~tag:"b" with
   | [ e ] -> check Alcotest.string "formatted detail" "42" e.Trace.detail
   | _ -> Alcotest.fail "expected one entry")

let test_trace_disabled () =
  let tr = Trace.create ~enabled:false () in
  Trace.record tr ~at:Sim_time.zero ~tag:"x" "y";
  checki "no entries" 0 (Trace.length tr)

let test_trace_capacity () =
  let tr = Trace.create ~capacity:3 () in
  for i = 1 to 5 do
    Trace.record tr ~at:Sim_time.zero ~tag:"t" (string_of_int i)
  done;
  checki "capped" 3 (Trace.length tr);
  (match Trace.entries tr with
   | e :: _ -> check Alcotest.string "oldest dropped" "3" e.Trace.detail
   | [] -> Alcotest.fail "empty")

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "sim"
    [ ( "time",
        [ Alcotest.test_case "units" `Quick test_time_units;
          Alcotest.test_case "arithmetic" `Quick test_time_arith ] );
      ( "heap",
        [ Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "peek" `Quick test_heap_peek;
          Alcotest.test_case "random ops vs model" `Quick test_heap_random_vs_model;
          Alcotest.test_case "pop releases value" `Quick test_heap_pop_releases_value;
          Alcotest.test_case "rejects wide key" `Quick test_heap_rejects_wide_key ]
        @ qsuite [ prop_heap_sorted ] );
      ( "rng",
        [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "sample without replacement" `Quick
            test_rng_sample_without_replacement;
          Alcotest.test_case "exponential positive" `Quick test_rng_exponential_positive ]
        @ qsuite [ prop_rng_int_bounds; prop_rng_float_bounds ] );
      ( "engine",
        [ Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "clock advances" `Quick test_engine_clock_advances;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "until" `Quick test_engine_until;
          Alcotest.test_case "same-time fifo" `Quick test_engine_same_time_fifo;
          Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
          Alcotest.test_case "max events" `Quick test_engine_max_events;
          Alcotest.test_case "negative delay clamped" `Quick
            test_engine_negative_delay_clamped ] );
      ( "trace",
        [ Alcotest.test_case "basic" `Quick test_trace_basic;
          Alcotest.test_case "disabled" `Quick test_trace_disabled;
          Alcotest.test_case "capacity" `Quick test_trace_capacity ] ) ]
