(* What one benchmark process measured, and its JSON rendering.

   The process prints this object as the last line of its standard
   output; [run.py] turns it into the driver-facing result line. *)

type t = {
  correct : bool;
  checks : (string * bool) list;   (* every correctness check, by name *)
  attempted : int;                 (* requests offered *)
  failed : int;                    (* requests not confirmed, rejected ones included *)
  metrics : (string * float * string) list;  (* name, value, unit *)
}

let make ~checks ~attempted ~failed metrics =
  { correct = List.for_all snd checks; checks; attempted; failed; metrics }

(* Quantile of unsorted samples, by the nearest-rank rule; nan when empty. *)
let quantile samples q =
  let n = Array.length samples in
  if n = 0 then nan
  else begin
    let a = Array.copy samples in
    Array.sort Float.compare a;
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
  end

let mean samples =
  let n = Array.length samples in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. samples /. float_of_int n

let median samples = quantile samples 0.5

let ratio a b = if b = 0. then 0. else a /. b

(* Process user+sys CPU seconds, every domain included. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* The major heap's peak over the process's life. *)
let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* JSON has no nan/inf: a metric that could not be computed is null. *)
let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let to_json r =
  let field (k, v) = json_string k ^ ": " ^ v in
  let obj kvs = "{" ^ String.concat ", " (List.map field kvs) ^ "}" in
  obj
    [ ("correct", string_of_bool r.correct);
      ("attempted", string_of_int r.attempted);
      ("failed", string_of_int r.failed);
      ( "metrics",
        obj
          (List.map
             (fun (name, v, unit) ->
               (name, obj [ ("value", json_float v); ("unit", json_string unit) ]))
             r.metrics) ) ]

(* Human-readable lines for the log, then the JSON line. *)
let print r =
  List.iter (fun (k, ok) -> Printf.printf "check %-28s %s\n" k (if ok then "ok" else "FAILED")) r.checks;
  List.iter (fun (name, v, unit) -> Printf.printf "%-34s %14.6g %s\n" name v unit) r.metrics;
  print_endline (to_json r)
