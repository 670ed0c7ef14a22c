(* In-memory span recorder for the benchmark's traced runs.

   Spans wrap calls the benchmark makes into the system (create, run_until
   slices, Replica.submit, store sink calls) plus the loop turns between
   two tick hooks. They nest strictly: the program runs the loop on one
   thread and every span is opened and closed on it, so a stack gives each
   span its parent. Times are wall nanoseconds from [Unix.gettimeofday]. *)

type t = {
  enabled : bool;
  names : (string, int) Hashtbl.t;
  mutable name_of : string array;
  mutable len : int;
  mutable name : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable batch : int array;   (* batch id for submit spans, -1 otherwise *)
  mutable current : int;       (* innermost open span, -1 at top level *)
}

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let create ~enabled =
  let cap = if enabled then 4096 else 0 in
  { enabled;
    names = Hashtbl.create 16;
    name_of = [||];
    len = 0;
    name = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap 0;
    batch = Array.make cap 0;
    current = -1 }

let enabled t = t.enabled

let name_id t s =
  match Hashtbl.find_opt t.names s with
  | Some i -> i
  | None ->
    let i = Array.length t.name_of in
    Hashtbl.add t.names s i;
    t.name_of <- Array.append t.name_of [| s |];
    i

let grow t =
  let cap = max 4096 (2 * Array.length t.start) in
  let ext a = Array.append a (Array.make (cap - Array.length a) 0) in
  t.name <- ext t.name;
  t.start <- ext t.start;
  t.stop <- ext t.stop;
  t.parent <- ext t.parent;
  t.batch <- ext t.batch

(* Opens a span under the innermost open one; returns its index, or -1
   when tracing is off. *)
let enter ?(batch = -1) t name =
  if not t.enabled then -1
  else begin
    if t.len = Array.length t.start then grow t;
    let i = t.len in
    t.len <- i + 1;
    t.name.(i) <- name;
    t.start.(i) <- now_ns ();
    t.stop.(i) <- -1;
    t.parent.(i) <- t.current;
    t.batch.(i) <- batch;
    t.current <- i;
    i
  end

let leave t i =
  if i >= 0 then begin
    t.stop.(i) <- now_ns ();
    t.current <- t.parent.(i)
  end

let with_span ?batch t name f =
  let i = enter ?batch t name in
  Fun.protect ~finally:(fun () -> leave t i) f

let length t = t.len
let duration t i = t.stop.(i) - t.start.(i)
let name_of t i = t.name_of.(t.name.(i))

(* Self time of every span: its duration minus the time its direct
   children cover (children never overlap, by the stack discipline). *)
let self_times t =
  let self = Array.init t.len (duration t) in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - duration t i
  done;
  self

(* Durations of every span with the given name, in seconds. *)
let durations t name =
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    if String.equal (name_of t i) name then acc := (float_of_int (duration t i) *. 1e-9) :: !acc
  done;
  Array.of_list !acc

(* Total self time per span name, in seconds, sorted by name. *)
let self_by_name t =
  let self = self_times t in
  let tbl = Hashtbl.create 16 in
  for i = 0 to t.len - 1 do
    let k = name_of t i in
    let prev = Option.value ~default:0 (Hashtbl.find_opt tbl k) in
    Hashtbl.replace tbl k (prev + self.(i))
  done;
  Hashtbl.fold (fun k v acc -> (k, float_of_int v *. 1e-9) :: acc) tbl []
  |> List.sort compare

(* One line per span: index, name, start and end (ns from the first
   span), parent index, batch id. *)
let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "id\tname\tstart_ns\tend_ns\tparent\tbatch\n";
      let t0 = if t.len > 0 then t.start.(0) else 0 in
      for i = 0 to t.len - 1 do
        Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" i (name_of t i) (t.start.(i) - t0)
          (t.stop.(i) - t0) t.parent.(i) t.batch.(i)
      done)
