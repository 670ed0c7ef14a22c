(* Metrics registry. See obs.mli for the contract.

   Hot-path discipline: counters and gauges are one unboxed [int
   Atomic.t] each ([fetch_and_add] / [set] — no allocation, no lock);
   histograms keep one [Stats.Histogram] shard per recording domain so
   the verify pool's workers never contend with the event loop, and the
   shard update is plain int arithmetic. Everything
   allocation-ful (registration, scraping, merging) happens off the hot
   path, under the registry mutex. *)

module Counter = struct
  type t = int Atomic.t

  let make () : t = Atomic.make 0
  let incr (t : t) = ignore (Atomic.fetch_and_add t 1 : int)
  let add (t : t) n = ignore (Atomic.fetch_and_add t n : int)
  let value (t : t) = Atomic.get t
end

module Gauge = struct
  type t = int Atomic.t

  let make () : t = Atomic.make 0
  let set (t : t) v = Atomic.set t v
  let add (t : t) n = ignore (Atomic.fetch_and_add t n : int)
  let value (t : t) = Atomic.get t
end

module Histogram = struct
  (* The registering domain records straight into [home]; any other
     domain (a verify-pool worker) records into its own shard behind
     [key], created on that domain's first record and listed in [away]
     under [mu]. Recording is lock-free after that first touch, and a
     histogram only one domain records into never touches [Domain.DLS].
     Shards merge at scrape time; [away] only ever grows (domains are
     few and pooled), so a merge sees every shard that ever recorded. *)
  type t = {
    owner : int;
    home : Stats.Histogram.t;
    mu : Mutex.t;
    away : Stats.Histogram.t list ref;
    key : Stats.Histogram.t Domain.DLS.key;
  }

  (* [Domain.self] without the generic runtime-call wrapper: the
     primitive only reads the domain's id, so it may be called as
     [noalloc], which halves its cost on the record path. *)
  external domain_id : unit -> int = "caml_ml_domain_id" [@@noalloc]

  let make () =
    let mu = Mutex.create () and away = ref [] in
    let key =
      Domain.DLS.new_key (fun () ->
          let s = Stats.Histogram.create () in
          Mutex.protect mu (fun () -> away := s :: !away);
          s)
    in
    { owner = domain_id (); home = Stats.Histogram.create (); mu; away; key }

  let record t v =
    Stats.Histogram.record
      (if domain_id () = t.owner then t.home else Domain.DLS.get t.key)
      v

  (* Shard fields are read without synchronizing with concurrent
     recorders: a snapshot may be a few observations behind a racing
     domain, which is inherent to scraping and harmless. *)
  let shards t = t.home :: Mutex.protect t.mu (fun () -> !(t.away))
  let snapshot t = List.fold_left Stats.Histogram.merge (Stats.Histogram.create ()) (shards t)
  let count t = List.fold_left (fun acc s -> acc + Stats.Histogram.count s) 0 (shards t)
  let sum t = List.fold_left (fun acc s -> acc + Stats.Histogram.sum_ns s) 0 (shards t)
end

module Registry = struct
  type inst =
    | Counter of Counter.t
    | Gauge of Gauge.t
    | Histogram of Histogram.t

  type metric = {
    name : string;
    labels : (string * string) list; (* sorted by key *)
    help : string option;
    inst : inst;
  }

  type t = {
    mu : Mutex.t;
    mutable metrics : metric list; (* registration order, newest first *)
    mutable collectors : (unit -> unit) list; (* newest first *)
  }

  let create () = { mu = Mutex.create (); metrics = []; collectors = [] }

  let kind_name = function
    | Counter _ -> "counter"
    | Gauge _ -> "gauge"
    | Histogram _ -> "histogram"

  let sort_labels labels =
    List.sort (fun (a, _) (b, _) -> String.compare a b) labels

  (* Idempotent registration: one instrument per (name, labels); a kind
     mismatch is a programming error worth failing loudly on. [fresh]
     runs only when the series is new. *)
  let register t ~name ~labels ~help ~kind fresh =
    let labels = sort_labels labels in
    Mutex.protect t.mu (fun () ->
        match
          List.find_opt (fun m -> String.equal m.name name && m.labels = labels) t.metrics
        with
        | Some m ->
          if not (String.equal (kind_name m.inst) kind) then
            invalid_arg
              (Printf.sprintf "Obs.Registry: %s already registered as a %s" name
                 (kind_name m.inst));
          m.inst
        | None ->
          let inst = fresh () in
          t.metrics <- { name; labels; help; inst } :: t.metrics;
          inst)

  let counter t ?help ?(labels = []) name =
    match register t ~name ~labels ~help ~kind:"counter" (fun () -> Counter (Counter.make ())) with
    | Counter c -> c
    | _ -> assert false

  let gauge t ?help ?(labels = []) name =
    match register t ~name ~labels ~help ~kind:"gauge" (fun () -> Gauge (Gauge.make ())) with
    | Gauge g -> g
    | _ -> assert false

  let histogram t ?help ?(labels = []) name =
    match register t ~name ~labels ~help ~kind:"histogram" (fun () -> Histogram (Histogram.make ())) with
    | Histogram h -> h
    | _ -> assert false

  let on_collect t f = Mutex.protect t.mu (fun () -> t.collectors <- f :: t.collectors)

  (* -- exposition ----------------------------------------------------- *)

  let escape_label_value v =
    let b = Buffer.create (String.length v) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string b "\\\\"
        | '"' -> Buffer.add_string b "\\\""
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      v;
    Buffer.contents b

  let label_str labels =
    match labels with
    | [] -> ""
    | labels ->
      let parts =
        List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v)) labels
      in
      "{" ^ String.concat "," parts ^ "}"

  (* Cumulative [le] lines for every bucket from the lowest to the
     highest occupied one, [le] being the bucket's largest member; the
     open-ended top bucket is counted by [+Inf] alone. *)
  let emit_histogram buf name labels h =
    let s = Histogram.snapshot h in
    let n = Stats.Histogram.count s in
    let line suffix labels v =
      Buffer.add_string buf (Printf.sprintf "%s%s%s %d\n" name suffix (label_str labels) v)
    in
    let top = Stats.Histogram.num_buckets - 1 in
    let lo = ref top and hi = ref (-1) in
    for b = 0 to top - 1 do
      if Stats.Histogram.bucket s b > 0 then begin
        if !lo = top then lo := b;
        hi := b
      end
    done;
    let cum = ref 0 in
    for b = !lo to !hi do
      cum := !cum + Stats.Histogram.bucket s b;
      let le = string_of_int (Stats.Histogram.bucket_lower (b + 1) - 1) in
      line "_bucket" (labels @ [ ("le", le) ]) !cum
    done;
    line "_bucket" (labels @ [ ("le", "+Inf") ]) n;
    line "_sum" labels (Stats.Histogram.sum_ns s);
    line "_count" labels n

  let expose t =
    let collectors = Mutex.protect t.mu (fun () -> List.rev t.collectors) in
    List.iter (fun f -> f ()) collectors;
    let metrics = Mutex.protect t.mu (fun () -> t.metrics) in
    let metrics =
      List.sort
        (fun a b ->
          match String.compare a.name b.name with
          | 0 -> compare a.labels b.labels
          | c -> c)
        metrics
    in
    let buf = Buffer.create 4096 in
    let last_family = ref "" in
    List.iter
      (fun m ->
        if not (String.equal !last_family m.name) then begin
          last_family := m.name;
          (match m.help with
          | Some h -> Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" m.name h)
          | None -> ());
          Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" m.name (kind_name m.inst))
        end;
        match m.inst with
        | Counter c ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %d\n" m.name (label_str m.labels) (Counter.value c))
        | Gauge g ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %d\n" m.name (label_str m.labels) (Gauge.value g))
        | Histogram h -> emit_histogram buf m.name m.labels h)
      metrics;
    Buffer.contents buf

  let dump_file t path =
    let tmp = path ^ ".tmp" in
    let oc = open_out tmp in
    (try output_string oc (expose t)
     with e ->
       close_out_noerr oc;
       raise e);
    close_out oc;
    Sys.rename tmp path
end
