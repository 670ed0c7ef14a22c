(* Segmented append-only write-ahead log.

   Framing mirrors the transport's [Frame] discipline: a fixed header
   (magic, version, kind, length, CRC-32 of the payload) in front of an
   opaque payload produced by the frozen [Core.Codec]. Segments are
   numbered [wal-%08d.log]; a snapshot [snap-%08d.dat] carries the same
   frame format and its number is the first segment recovery must replay
   — everything below it is subsumed and deleted after the snapshot is
   durably in place.

   Group commit: [append] only fills a user-space buffer; [flush] writes
   it to the current segment in one [write] and fsyncs according to the
   policy. [crash] models the process dying — the buffer is dropped, so
   the file keeps a clean frame prefix (torn frames appear only through
   fault injection in tests). *)

type fsync_policy = Always | Interval of int | Never

let fsync_policies = [ ("always", Always); ("interval", Interval 50_000_000); ("never", Never) ]

type corruption = { segment : string; off : int; reason : string }

let pp_corruption fmt c =
  Format.fprintf fmt "%s at byte %d of %s" c.reason c.off c.segment

type metrics = {
  append_lat : Obs.Histogram.t;
  fsync_lat : Obs.Histogram.t;
  rotations : Obs.Counter.t;
  snapshots : Obs.Counter.t;
}

type t = {
  dir : string;
  segment_bytes : int;
  fsync : fsync_policy;
  now_ns : unit -> int;
  ms : metrics option;
  buf : Buffer.t;
  mutable fd : Unix.file_descr;
  mutable seq : int;
  mutable seg_size : int; (* written + buffered bytes of the current segment *)
  mutable dirty : bool;   (* written since the last fsync *)
  mutable last_sync_ns : int;
  mutable closed : bool;
  mutable appended : int;
}

let magic = "LWAL"
let version = 1
let header_bytes = 14
let kind_record = 1
let kind_snapshot = 2

(* A valid frame never comes close to this; a scanner hitting a larger
   length field is looking at garbage and must not trust (or allocate)
   it. *)
let max_payload = 64 * 1024 * 1024

let segment_name seq = Printf.sprintf "wal-%08d.log" seq
let snapshot_name seq = Printf.sprintf "snap-%08d.dat" seq
let segment_seq name = Scanf.sscanf_opt name "wal-%d.log%!" (fun s -> s)
let snapshot_seq name = Scanf.sscanf_opt name "snap-%d.dat%!" (fun s -> s)

let frame ~kind payload =
  let len = String.length payload in
  let b = Bytes.create (header_bytes + len) in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set b 4 (Char.chr version);
  Bytes.set b 5 (Char.chr kind);
  Bytes.set_int32_le b 6 (Int32.of_int len);
  Bytes.set_int32_le b 10 (Int32.of_int (Crc32.string payload));
  Bytes.blit_string payload 0 b header_bytes len;
  Bytes.unsafe_to_string b

(* Scans [data] as a sequence of frames of one expected [kind], calling
   [k payload] for each valid one in order. Returns the corruption that
   stopped the scan, if any; everything before it was delivered — the
   clean prefix. A frame of any other kind stops the scan too: a
   snapshot frame inside a [.log] segment (or vice versa) is file
   corruption, and skipping it silently would turn a prefix into a
   record list with a hole. *)
let scan ~path ~kind:expected data k =
  let len = String.length data in
  let stop off reason = Some { segment = path; off; reason } in
  let rec go off =
    if off = len then None
    else if off + header_bytes > len then stop off "truncated header"
    else if not (String.equal (String.sub data off 4) magic) then stop off "bad magic"
    else if Char.code data.[off + 4] <> version then stop off "bad version"
    else if Char.code data.[off + 5] <> expected then stop off "unexpected kind"
    else begin
      let plen = Int32.to_int (String.get_int32_le data (off + 6)) land 0xFFFFFFFF in
      let crc = Int32.to_int (String.get_int32_le data (off + 10)) land 0xFFFFFFFF in
      if plen > max_payload then stop off "oversized frame"
      else if off + header_bytes + plen > len then stop off "truncated payload"
      else begin
        let payload = String.sub data (off + header_bytes) plen in
        if Crc32.string payload <> crc then stop off "crc mismatch"
        else begin
          k payload;
          go (off + header_bytes + plen)
        end
      end
    end
  in
  go 0

let read_file path =
  let ic = In_channel.open_bin path in
  Fun.protect ~finally:(fun () -> In_channel.close ic) (fun () -> In_channel.input_all ic)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let list_dir dir = if Sys.file_exists dir then Array.to_list (Sys.readdir dir) else []

let segments dir =
  List.filter_map segment_seq (list_dir dir) |> List.sort_uniq compare

let snapshots dir =
  List.filter_map snapshot_seq (list_dir dir) |> List.sort_uniq compare

let open_segment dir seq =
  Unix.openfile (Filename.concat dir (segment_name seq))
    [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644

(* All WALs sharing a registry share these instruments (registration is
   idempotent): store metrics aggregate across replicas rather than
   exploding the label space at large n. *)
let metrics_of reg =
  { append_lat =
      Obs.Registry.histogram reg ~help:"wal append call latency (ns)"
        "leopard_store_append_latency_ns";
    fsync_lat =
      Obs.Registry.histogram reg ~help:"fsync syscall latency (ns)"
        "leopard_store_fsync_latency_ns";
    rotations =
      Obs.Registry.counter reg ~help:"segment rotations" "leopard_store_rotations_total";
    snapshots =
      Obs.Registry.counter reg ~help:"checkpoint snapshots written"
        "leopard_store_snapshots_total" }

let create ?obs ?(segment_bytes = 4 * 1024 * 1024) ?(fsync = Never)
    ?(now_ns = fun () -> int_of_float (Unix.gettimeofday () *. 1e9)) ~dir () =
  mkdir_p dir;
  (* Always start a fresh segment: the previous process may have died
     mid-write, and appending after a torn tail would hide it from the
     recovery scanner. *)
  let seq =
    1 + List.fold_left max (-1) (List.rev_append (segments dir) (snapshots dir))
  in
  { dir;
    segment_bytes;
    fsync;
    now_ns;
    ms = Option.map metrics_of obs;
    buf = Buffer.create 4096;
    fd = open_segment dir seq;
    seq;
    seg_size = 0;
    dirty = false;
    last_sync_ns = now_ns ();
    closed = false;
    appended = 0 }

let dir t = t.dir
let appended t = t.appended

let write_buffer t =
  if Buffer.length t.buf > 0 then begin
    let data = Buffer.contents t.buf in
    Buffer.clear t.buf;
    let len = String.length data in
    let pos = ref 0 in
    while !pos < len do
      pos := !pos + Unix.write_substring t.fd data !pos (len - !pos)
    done;
    t.dirty <- true
  end

let do_fsync t =
  if t.dirty then begin
    (match t.ms with
    | None -> Unix.fsync t.fd
    | Some m ->
      let t0 = t.now_ns () in
      Unix.fsync t.fd;
      Obs.Histogram.record m.fsync_lat (t.now_ns () - t0));
    t.dirty <- false
  end;
  t.last_sync_ns <- t.now_ns ()

let flush t =
  if not t.closed then begin
    write_buffer t;
    match t.fsync with
    | Always -> do_fsync t
    | Never -> ()
    | Interval ns -> if t.now_ns () - t.last_sync_ns >= ns then do_fsync t
  end

let sync t =
  if not t.closed then begin
    write_buffer t;
    do_fsync t
  end

let rotate t =
  write_buffer t;
  Unix.close t.fd;
  t.seq <- t.seq + 1;
  t.fd <- open_segment t.dir t.seq;
  t.seg_size <- 0;
  t.dirty <- false;
  match t.ms with Some m -> Obs.Counter.incr m.rotations | None -> ()

let append t payload =
  if not t.closed then begin
    let t0 = match t.ms with Some _ -> t.now_ns () | None -> 0 in
    let fr = frame ~kind:kind_record payload in
    if t.seg_size > 0 && t.seg_size + String.length fr > t.segment_bytes then rotate t;
    Buffer.add_string t.buf fr;
    t.seg_size <- t.seg_size + String.length fr;
    t.appended <- t.appended + 1;
    if t.fsync = Always then begin
      write_buffer t;
      do_fsync t
    end;
    match t.ms with
    | Some m -> Obs.Histogram.record m.append_lat (t.now_ns () - t0)
    | None -> ()
  end

let save_snapshot t payload =
  if not t.closed then begin
    (* Seal the log at a segment boundary so the snapshot's number names
       exactly the segments that postdate it. *)
    rotate t;
    let snap_seq = t.seq in
    let final = Filename.concat t.dir (snapshot_name snap_seq) in
    let tmp = final ^ ".tmp" in
    let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        let data = frame ~kind:kind_snapshot payload in
        let len = String.length data in
        let pos = ref 0 in
        while !pos < len do
          pos := !pos + Unix.write_substring fd data !pos (len - !pos)
        done;
        Unix.fsync fd);
    (* Atomic publication, then truncation of everything it subsumes. *)
    Unix.rename tmp final;
    (match t.ms with Some m -> Obs.Counter.incr m.snapshots | None -> ());
    List.iter
      (fun seq ->
        if seq < snap_seq then
          try Sys.remove (Filename.concat t.dir (segment_name seq)) with Sys_error _ -> ())
      (segments t.dir);
    List.iter
      (fun seq ->
        if seq < snap_seq then
          try Sys.remove (Filename.concat t.dir (snapshot_name seq)) with Sys_error _ -> ())
      (snapshots t.dir)
  end

let crash t =
  if not t.closed then begin
    t.closed <- true;
    Buffer.clear t.buf;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let close t =
  if not t.closed then begin
    write_buffer t;
    (match t.fsync with Never -> () | Always | Interval _ -> do_fsync t);
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

(* Recovery scanner. Picks the newest snapshot that validates, then
   replays every segment at or above its number in order, stopping at
   the first corrupt or torn frame. Total: every failure mode is either
   a skipped snapshot or a reported [corruption], never an exception. *)
let load ~dir =
  if not (Sys.file_exists dir) then (None, [], None)
  else begin
    let try_snapshot seq =
      let path = Filename.concat dir (snapshot_name seq) in
      match read_file path with
      | exception Sys_error _ -> None
      | data ->
        let result = ref None in
        let err =
          scan ~path ~kind:kind_snapshot data (fun payload ->
              if !result = None then result := Some payload)
        in
        if err = None then !result else None
    in
    let snap_seq, snap =
      List.fold_left
        (fun acc seq ->
          match acc with
          | _, Some _ -> acc
          | _, None -> (
            match try_snapshot seq with
            | Some payload -> (seq, Some payload)
            | None -> acc))
        (0, None)
        (List.rev (snapshots dir))
    in
    let records = ref [] in
    let corruption = ref None in
    let replay seq =
      if !corruption = None then begin
        let path = Filename.concat dir (segment_name seq) in
        match read_file path with
        | exception Sys_error _ -> ()
        | data ->
          corruption :=
            scan ~path ~kind:kind_record data (fun payload ->
                records := payload :: !records)
      end
    in
    List.iter (fun seq -> if seq >= snap_seq then replay seq) (segments dir);
    (snap, List.rev !records, !corruption)
  end
