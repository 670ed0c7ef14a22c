(* Transport stack tests: the frame layer bit-for-bit, the event loop's
   timer and fd semantics, and n = 4 clusters over real loopback TCP — including
   the acceptance scenarios: >= 1000 requests confirmed with identical
   state hashes, and a fail-stopped non-leader that the cluster survives
   and that reconnects after revival. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let to_hex s =
  String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

(* -- frame golden bytes -------------------------------------------------- *)

let test_frame_hello_golden () =
  (* magic "LPRD", version 1 (u16 LE), kind 0, len 4, node id 3 (u32 LE) *)
  checks "hello frame" "4c5052440100000400000003000000" (to_hex (Transport.Frame.encode_hello 3))

let test_frame_msg_golden () =
  (* Header (kind 1, len 37) + the codec's frozen Fetch bytes: the frame
     layer adds exactly 11 bytes and never rewrites the payload. *)
  checks "msg frame"
    ("4c50524401000125000000"
    ^ "0b20000000ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
    (to_hex (Transport.Frame.encode_msg (Core.Msg.Fetch { hash = Crypto.Hash.of_string "abc" })))

(* -- frame incremental decoding ----------------------------------------- *)

let feed_string r s k =
  Transport.Frame.feed r (Bytes.of_string s) ~off:0 ~len:(String.length s) k

let collect_frames feeds =
  let r = Transport.Frame.reader () in
  let acc = ref [] in
  let res =
    List.fold_left
      (fun last s -> match last with Error _ -> last | Ok () -> feed_string r s (fun f -> acc := f :: !acc))
      (Ok ()) feeds
  in
  (res, List.rev !acc, r)

let test_frame_byte_at_a_time () =
  let wire =
    Transport.Frame.encode_hello 2
    ^ Transport.Frame.encode_msg (Core.Msg.Fetch { hash = Crypto.Hash.of_string "x" })
  in
  let bytes = List.init (String.length wire) (fun i -> String.make 1 wire.[i]) in
  let res, frames, r = collect_frames bytes in
  checkb "no error" true (res = Ok ());
  checki "two frames" 2 (List.length frames);
  (match frames with
  | [ Transport.Frame.Hello 2; Transport.Frame.Msg (Core.Msg.Fetch _) ] -> ()
  | _ -> Alcotest.fail "wrong frames or order");
  checkb "clean eof" true (Transport.Frame.check_eof r = Ok ())

let test_frame_coalesced () =
  let wire =
    Transport.Frame.encode_hello 0
    ^ Transport.Frame.encode_hello 1
    ^ Transport.Frame.encode_hello 2
  in
  let res, frames, _ = collect_frames [ wire ] in
  checkb "no error" true (res = Ok ());
  checkb "three hellos in order" true
    (frames = [ Transport.Frame.Hello 0; Transport.Frame.Hello 1; Transport.Frame.Hello 2 ])

let test_frame_short_read () =
  let wire = Transport.Frame.encode_hello 7 in
  let partial = String.sub wire 0 (String.length wire - 1) in
  let res, frames, r = collect_frames [ partial ] in
  checkb "partial frame is not an error" true (res = Ok ());
  checki "nothing parsed" 0 (List.length frames);
  checkb "eof mid-frame is" true
    (Transport.Frame.check_eof r = Error Transport.Frame.Short_read)

let header ~version ~kind ~len =
  let b = Buffer.create 11 in
  Buffer.add_string b Transport.Frame.magic;
  Buffer.add_uint16_le b version;
  Buffer.add_uint8 b kind;
  Buffer.add_int32_le b (Int32.of_int len);
  Buffer.contents b

let test_frame_errors () =
  (* Bad magic. *)
  let res, _, r = collect_frames [ "XXXXXXXXXXXXXXXX" ] in
  checkb "bad magic" true (res = Error Transport.Frame.Bad_magic);
  (* ... poisons the reader: the same error again, parsing never resumes. *)
  checkb "poisoned" true
    (feed_string r (Transport.Frame.encode_hello 1) (fun _ -> ())
    = Error Transport.Frame.Bad_magic);
  (* Wrong protocol version. *)
  let res, _, _ = collect_frames [ header ~version:2 ~kind:0 ~len:4 ^ "aaaa" ] in
  checkb "bad version" true (res = Error (Transport.Frame.Bad_version 2));
  (* Declared length beyond the cap is rejected before buffering. *)
  let r = Transport.Frame.reader ~max_frame:16 () in
  checkb "oversized" true
    (feed_string r (header ~version:1 ~kind:1 ~len:1000) (fun _ -> ())
    = Error (Transport.Frame.Oversized 1000));
  (* Well-framed payload the codec rejects. *)
  let res, _, _ = collect_frames [ header ~version:1 ~kind:1 ~len:4 ^ "\xff\xff\xff\xff" ] in
  checkb "undecodable msg" true (res = Error Transport.Frame.Decode_failed);
  (* A hello payload must be exactly 4 bytes. *)
  let res, _, _ = collect_frames [ header ~version:1 ~kind:0 ~len:5 ^ "aaaaa" ] in
  checkb "malformed hello" true (res = Error Transport.Frame.Decode_failed);
  (* Unknown frame kind. *)
  let res, _, _ = collect_frames [ header ~version:1 ~kind:9 ~len:0 ] in
  checkb "unknown kind" true (res = Error Transport.Frame.Decode_failed)

(* -- event loop ---------------------------------------------------------- *)

let test_loop_timer_fifo () =
  let loop = Transport.Loop.create () in
  let order = ref [] in
  let note x = order := x :: !order in
  ignore (Transport.Loop.schedule loop ~delay:0L (fun () -> note 1) : Transport.Loop.handle);
  ignore (Transport.Loop.schedule loop ~delay:0L (fun () -> note 2) : Transport.Loop.handle);
  ignore (Transport.Loop.schedule loop ~delay:0L (fun () -> note 3) : Transport.Loop.handle);
  ignore
    (Transport.Loop.schedule loop ~delay:(Sim.Sim_time.ms 2) (fun () -> note 4)
      : Transport.Loop.handle);
  Transport.Loop.run_for loop ~span:(Sim.Sim_time.ms 20);
  checkb "same-instant timers fire in schedule order, later timers after" true
    (List.rev !order = [ 1; 2; 3; 4 ]);
  Transport.Loop.close loop

let test_loop_cancel () =
  let loop = Transport.Loop.create () in
  let fired = ref [] in
  let h1 = Transport.Loop.schedule loop ~delay:(Sim.Sim_time.ms 1) (fun () -> fired := 1 :: !fired) in
  let _h2 =
    Transport.Loop.schedule loop ~delay:(Sim.Sim_time.ms 1) (fun () -> fired := 2 :: !fired)
  in
  Transport.Loop.cancel loop h1;
  checki "cancelled timer leaves the pending count" 1 (Transport.Loop.pending_timers loop);
  Transport.Loop.run_for loop ~span:(Sim.Sim_time.ms 20);
  checkb "only the live timer fired" true (!fired = [ 2 ]);
  checki "nothing pending" 0 (Transport.Loop.pending_timers loop);
  (* Cancelling after the fact is a no-op (at worst a parked entry). *)
  Transport.Loop.cancel loop h1;
  checki "still nothing pending" 0 (Transport.Loop.pending_timers loop);
  Transport.Loop.close loop

let test_loop_schedule_from_callback () =
  let loop = Transport.Loop.create () in
  let hits = ref 0 in
  ignore
    (Transport.Loop.schedule loop ~delay:0L (fun () ->
         incr hits;
         ignore (Transport.Loop.schedule loop ~delay:0L (fun () -> incr hits)
                  : Transport.Loop.handle))
      : Transport.Loop.handle);
  Transport.Loop.run_for loop ~span:(Sim.Sim_time.ms 20);
  checki "chained zero-delay timers both ran" 2 !hits;
  checkb "clock is monotone" true (Transport.Loop.now_ns loop >= 0);
  Transport.Loop.close loop

(* The time tick hooks take counts against the wait: a timer due while a
   slow hook runs fires right after it, not a full timer gap later. *)
let test_loop_timer_after_slow_tick () =
  let loop = Transport.Loop.create () in
  let fired_at = ref (-1) in
  ignore
    (Transport.Loop.schedule loop ~delay:(Sim.Sim_time.ms 10) (fun () ->
         fired_at := Transport.Loop.now_ns loop)
      : Transport.Loop.handle);
  let slept = ref false in
  let _h =
    Transport.Loop.on_tick loop (fun () ->
        if not !slept then begin
          slept := true;
          Unix.sleepf 0.02
        end)
  in
  Transport.Loop.run_while loop (fun () ->
      !fired_at < 0 && Transport.Loop.now_ns loop < 1_000_000_000);
  Transport.Loop.close loop;
  checkb "timer fired" true (!fired_at >= 0);
  checkb
    (Printf.sprintf "10 ms timer behind a 20 ms tick fired at %.1f ms (< 27 ms)"
       (float_of_int !fired_at *. 1e-6))
    true
    (!fired_at < 27_000_000)

(* Exactly [k] dispatch rounds. *)
let run_rounds loop k =
  let left = ref k in
  Transport.Loop.run_while loop (fun () ->
      decr left;
      !left >= 0)

let test_loop_level_triggered () =
  let loop = Transport.Loop.create () in
  let r, w = Unix.pipe () in
  ignore (Unix.write_substring w "x" 0 1 : int);
  let hits = ref 0 in
  Transport.Loop.watch_read loop r (fun () -> incr hits);
  run_rounds loop 3;
  checki "an undrained pipe fires every round" 3 !hits;
  Transport.Loop.unwatch loop r;
  Transport.Loop.unwatch loop r (* unwatching an unwatched fd is a no-op *);
  Transport.Loop.close loop;
  Unix.close r;
  Unix.close w

let test_loop_read_write_coexist () =
  let loop = Transport.Loop.create () in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  ignore (Unix.write_substring b "x" 0 1 : int);
  let log = ref [] in
  Transport.Loop.watch_write loop a (fun () -> log := `W :: !log);
  Transport.Loop.watch_read loop a (fun () -> log := `R :: !log);
  run_rounds loop 1;
  checkb "both directions fire, the reader first" true (List.rev !log = [ `R; `W ]);
  log := [];
  Transport.Loop.unwatch_write loop a;
  run_rounds loop 2;
  checkb "unwatch_write keeps the reader" true (!log = [ `R; `R ]);
  Transport.Loop.unwatch loop a;
  Transport.Loop.close loop;
  Unix.close a;
  Unix.close b

(* Two fds ready in the same round, each in both directions; whichever
   callback runs first unwatches and closes the other. Nothing may then
   run on the closed one, in either direction. *)
let test_loop_unwatch_ready_fd () =
  let loop = Transport.Loop.create () in
  let x, x' = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let y, y' = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  ignore (Unix.write_substring x' "x" 0 1 : int);
  ignore (Unix.write_substring y' "y" 0 1 : int);
  let closed = ref None and calls = ref [] in
  let watch me other =
    let cb () =
      calls := me :: !calls;
      if !closed = None then begin
        Transport.Loop.unwatch loop other;
        Unix.close other;
        closed := Some other
      end
    in
    Transport.Loop.watch_read loop me cb;
    Transport.Loop.watch_write loop me cb
  in
  watch x y;
  watch y x;
  run_rounds loop 1;
  (match !closed with
   | None -> Alcotest.fail "no callback ran"
   | Some gone ->
     let survivor = if gone = x then y else x in
     checkb "the survivor's reader and writer ran, nothing on the closed fd" true
       (!calls = [ survivor; survivor ]);
     Transport.Loop.unwatch loop survivor;
     Unix.close survivor);
  Transport.Loop.close loop;
  Unix.close x';
  Unix.close y'

let test_loop_close_releases_fd () =
  let fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let before = fds () in
  let loop = Transport.Loop.create () in
  checki "a loop holds one fd" (before + 1) (fds ());
  Transport.Loop.close loop;
  Transport.Loop.close loop (* closing twice is a no-op *);
  checki "close releases it" before (fds ());
  checkb "a closed loop refuses to run" true
    (match Transport.Loop.run_for loop ~span:0L with
     | () -> false
     | exception Invalid_argument _ -> true)

(* -- zero-copy data plane ------------------------------------------------ *)

let test_pool_reuse_poison_double_free () =
  let p = Transport.Pool.create ~debug:true () in
  let b = Transport.Pool.acquire p 5000 in
  checki "request rounds up to its class" 8192 (Bytes.length b);
  Bytes.fill b 0 (Bytes.length b) 'x';
  Transport.Pool.release p b;
  checkb "released buffer is poisoned" true
    (Bytes.get b 0 = Transport.Pool.poison_byte
    && Bytes.get b 8191 = Transport.Pool.poison_byte);
  let b' = Transport.Pool.acquire p 8192 in
  checkb "acquire recycles the released buffer" true (b' == b);
  checki "hit counted" 1 (Transport.Pool.stats p).Transport.Pool.hits;
  Transport.Pool.release p b';
  (match Transport.Pool.release p b' with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "double release undetected");
  (* Off-class lengths are never pooled (they would poison the classes). *)
  Transport.Pool.release p (Bytes.create 100);
  checki "off-class release dropped" 1 (Transport.Pool.stats p).Transport.Pool.dropped;
  (* Oversized requests degrade to exact plain allocations. *)
  let big = Transport.Pool.acquire p (Transport.Pool.max_class + 1) in
  checki "oversized is exact-size" (Transport.Pool.max_class + 1) (Bytes.length big);
  let before = (Transport.Pool.stats p).Transport.Pool.dropped in
  Transport.Pool.release p big;
  checki "oversized release dropped too" (before + 1)
    (Transport.Pool.stats p).Transport.Pool.dropped

(* A sender [Conn] dialing plain listening sockets the test reads raw
   bytes from: the ground truth for what actually hit the wire. *)
let raw_listener () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen fd 8;
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, port) -> (fd, port)
  | Unix.ADDR_UNIX _ -> assert false

let read_exactly fd n =
  let b = Bytes.create n in
  let got = ref 0 in
  while !got < n do
    let k = Unix.read fd b !got (n - !got) in
    if k = 0 then Alcotest.fail "peer stream ended early";
    got := !got + k
  done;
  Bytes.to_string b

let spin loop pred =
  let deadline = Transport.Loop.now_ns loop + 10_000_000_000 in
  Transport.Loop.run_while loop (fun () ->
      Transport.Loop.now_ns loop < deadline && not (pred ()));
  pred ()

(* Multicast to [k] raw peers; return per-peer wire bytes. [clamp] caps
   bytes per write(2) to force partial-write paths. *)
let multicast_wire ?clamp msgs =
  let k = 3 in
  let loop = Transport.Loop.create () in
  let conn = Transport.Conn.create ~loop ~id:0 ~on_msg:(fun ~src:_ _ -> ()) () in
  (match clamp with Some c -> Transport.Conn.set_max_write conn c | None -> ());
  let listeners = Array.init k (fun _ -> raw_listener ()) in
  Array.iteri
    (fun i (_, port) ->
      Transport.Conn.set_peer_addr conn (i + 1)
        (Unix.ADDR_INET (Unix.inet_addr_loopback, port)))
    listeners;
  let e0 = Transport.Frame.encode_count () in
  List.iter (fun m -> Transport.Conn.multicast conn ~n:(k + 1) m) msgs;
  checki "one encode per multicast, regardless of fan-out"
    (List.length msgs)
    (Transport.Frame.encode_count () - e0);
  (* [frames_sent] counts queued frames only — the hello goes out as the
     connection prefix, not through the queue. *)
  let done_ = spin loop (fun () ->
      (Transport.Conn.stats conn).Transport.Conn.frames_sent = List.length msgs * k)
  in
  checkb "all frames flushed" true done_;
  checki "nothing dropped" 0 (Transport.Conn.dropped conn);
  let expected_bytes =
    Transport.Frame.encode_hello 0
    ^ String.concat "" (List.map Transport.Frame.encode_msg msgs)
  in
  let wires =
    Array.map
      (fun (lfd, _) ->
        let fd, _ = Unix.accept lfd in
        let s = read_exactly fd (String.length expected_bytes) in
        Unix.close fd;
        Unix.close lfd;
        s)
      listeners
  in
  Transport.Conn.close conn;
  Transport.Loop.close loop;
  (expected_bytes, wires, Transport.Conn.stats conn)

let some_msgs () =
  List.map
    (fun s -> Core.Msg.Fetch { hash = Crypto.Hash.of_string s })
    [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ]

let test_multicast_byte_equivalence () =
  let expected, wires, _ = multicast_wire (some_msgs ()) in
  Array.iteri
    (fun i wire -> checks (Printf.sprintf "peer %d wire bytes" (i + 1)) expected wire)
    wires

let test_multicast_coalesces_writes () =
  (* All frames are queued while the dial is still in progress, so the
     first flush finds the whole backlog: the hello plus one gather write
     should drain it — syscalls/frame far below 1. *)
  let msgs = some_msgs () in
  let _, _, stats = multicast_wire msgs in
  let k = 3 in
  checki "every frame sent" (List.length msgs * k) stats.Transport.Conn.frames_sent;
  checkb
    (Printf.sprintf "coalesced: %d write syscalls for %d frames"
       stats.Transport.Conn.write_syscalls stats.Transport.Conn.frames_sent)
    true
    (stats.Transport.Conn.write_syscalls <= 3 * k)

let test_multicast_one_byte_torture () =
  (* Clamp every write(2) to a single byte: shared frames cross the wire
     one byte at a time, head offsets walking through frame boundaries on
     every peer independently. The wire must still be byte-identical to a
     per-peer encode. *)
  let expected, wires, _ = multicast_wire ~clamp:1 (some_msgs ()) in
  Array.iteri
    (fun i wire ->
      checks (Printf.sprintf "peer %d wire bytes under clamp" (i + 1)) expected wire)
    wires

let test_loop_tick_remove () =
  let loop = Transport.Loop.create () in
  let kept = ref 0 and removed = ref 0 in
  let _k = Transport.Loop.on_tick loop (fun () -> incr kept) in
  let h = Transport.Loop.on_tick loop (fun () -> incr removed) in
  Transport.Loop.remove_tick loop h;
  Transport.Loop.remove_tick loop h (* double removal is a no-op *);
  Transport.Loop.run_for loop ~span:(Sim.Sim_time.ms 2);
  checkb "kept hook ran" true (!kept > 0);
  checki "removed hook never ran" 0 !removed;
  Transport.Loop.close loop

let test_large_frame_genuine_backpressure () =
  (* Frames several times larger than one kernel write chunk, pushed at a
     peer whose receive buffer is clamped tiny: the sender hits genuine
     partial writes and EAGAIN from write(2) itself — the path the
     [max_write] clamp cannot reach, because clamped offers always fit in
     one syscall. A write primitive that loses the bytes the kernel
     already accepted before EAGAIN (as [Unix.write]'s internal chunking
     does) re-sends them and corrupts the stream; the wire must stay
     byte-identical to a clean encode. *)
  let rng = Sim.Rng.create 7L in
  let _pk, sk = Crypto.Signature.keygen rng in
  let loop = Transport.Loop.create () in
  let conn =
    Transport.Conn.create ~loop ~id:0 ~outbuf_hwm:(64 * 1024 * 1024)
      ~on_msg:(fun ~src:_ _ -> ()) ()
  in
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt_int lfd Unix.SO_RCVBUF 16384;
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 8;
  let port =
    match Unix.getsockname lfd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  Transport.Conn.set_peer_addr conn 1 (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let batches =
    List.init 10_000 (fun i -> Workload.Request.make ~id:i ~count:1 ~size_each:64 ~born:0L ())
  in
  let msgs =
    List.init 8 (fun i ->
        Core.Msg.Datablock_msg
          (Core.Datablock.create ~sk ~creator:0 ~counter:(i + 1) ~now:0L batches))
  in
  let expected =
    Transport.Frame.encode_hello 0
    ^ String.concat "" (List.map Transport.Frame.encode_msg msgs)
  in
  checkb "each frame spans multiple kernel write chunks" true
    (String.length expected / List.length msgs > 2 * 65536);
  List.iter (fun m -> Transport.Conn.multicast conn ~n:2 m) msgs;
  (* Drive the loop and drain the peer concurrently; the bounded receive
     window keeps the sender under backpressure the whole way. *)
  let fd, _ = Unix.accept lfd in
  Unix.set_nonblock fd;
  let got = Buffer.create (String.length expected) in
  let chunk = Bytes.create 8192 in
  let deadline = Transport.Loop.now_ns loop + 30_000_000_000 in
  while
    Buffer.length got < String.length expected && Transport.Loop.now_ns loop < deadline
  do
    Transport.Loop.run_for loop ~span:(Sim.Sim_time.ms 1);
    let draining = ref true in
    while !draining do
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 ->
        draining := false;
        Alcotest.fail "peer stream ended early"
      | n -> Buffer.add_subbytes got chunk 0 n
      | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _) ->
        draining := false
    done
  done;
  checki "no drops under backpressure" 0 (Transport.Conn.dropped conn);
  checki "full wire received" (String.length expected) (Buffer.length got);
  checkb "wire byte-identical under genuine partial writes" true
    (String.equal expected (Buffer.contents got));
  Unix.close fd;
  Unix.close lfd;
  Transport.Conn.close conn;
  Transport.Loop.close loop

let test_multicast_delivery_and_stats () =
  (* Two real Conn endpoints: multicast delivery decodes back to the
     original message and the receive counters move. *)
  let loop = Transport.Loop.create () in
  let got = ref [] in
  let a = Transport.Conn.create ~loop ~id:0 ~on_msg:(fun ~src:_ _ -> ()) () in
  let b =
    Transport.Conn.create ~loop ~id:1 ~on_msg:(fun ~src msg -> got := (src, msg) :: !got) ()
  in
  let port = Transport.Conn.listen b () in
  Transport.Conn.set_peer_addr a 1 (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let msg = Core.Msg.Fetch { hash = Crypto.Hash.of_string "zz" } in
  Transport.Conn.multicast a ~n:2 msg;
  let ok = spin loop (fun () -> !got <> []) in
  checkb "delivered" true ok;
  (match !got with
  | [ (0, m) ] -> checkb "decodes equal" true (Core.Codec.msg_equal m msg)
  | _ -> Alcotest.fail "wrong delivery");
  let sb = Transport.Conn.stats b in
  checkb "receiver counted reads" true (sb.Transport.Conn.read_syscalls > 0);
  checki "receiver parsed hello + msg" 2 sb.Transport.Conn.frames_recvd;
  checkb "receiver counted bytes" true (sb.Transport.Conn.bytes_recvd > 0);
  Transport.Conn.close a;
  Transport.Conn.close b;
  Transport.Loop.close loop

(* -- real-TCP clusters --------------------------------------------------- *)

(* Small batches and snappy timers: commits every few tens of
   milliseconds at modest load. The view timeout is set far beyond the
   test's wall clock so view changes never race a short run (the leader
   stays up in both scenarios; faults here target the transport, not the
   view-change protocol, which the sim suite covers). *)
let tcp_cfg () =
  Core.Config.make ~n:4 ~alpha:10 ~bft_size:2 ~k:16 ~payload:64
    ~datablock_timeout:(Sim.Sim_time.ms 20) ~proposal_timeout:(Sim.Sim_time.ms 20)
    ~view_timeout:(Sim.Sim_time.s 120) ~fetch_grace:(Sim.Sim_time.ms 200)
    ~cost:Crypto.Cost_model.free ()

(* An n whose fds the open-file limit cannot cover is refused up front,
   typed and before any socket is bound, not mid-run with EMFILE. *)
let test_tcp_cluster_rejects_oversized_n () =
  let max = Transport.Cluster.max_replicas in
  checkb "the paper's small clusters fit" true (max >= 16);
  checkb "max fits" true (Transport.Cluster.check_size ~n:max = Ok ());
  checkb "max + 1 does not" true (Result.is_error (Transport.Cluster.check_size ~n:(max + 1)));
  let fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let before = fds () in
  let cfg = Core.Config.make ~n:(max + 1) () in
  (match Transport.Cluster.create ~cfg () with
   | _ -> Alcotest.fail "oversized cluster created"
   | exception Invalid_argument msg ->
     checkb "reason names the limit" true
       (msg = Result.get_error (Transport.Cluster.check_size ~n:(max + 1))));
  checki "no fd opened" before (fds ())

let test_tcp_cluster_commits_and_converges () =
  let r =
    Transport.Cluster.run ~cfg:(tcp_cfg ()) ~load:2000. ~duration:(Sim.Sim_time.s 25)
      ~drain:(Sim.Sim_time.s 10) ~min_confirmed:1200 ()
  in
  checkb "confirmed >= 1000 requests" true (r.Transport.Cluster.confirmed >= 1000);
  checkb "well within the 30 s budget" true (r.Transport.Cluster.wall_sec < 25.);
  checkb "honest replicas reached one state hash" true r.Transport.Cluster.converged;
  checkb "ledgers agree position-wise" true r.Transport.Cluster.ledgers_agree;
  (match r.Transport.Cluster.state_hashes with
  | (_, h) :: rest ->
    checkb "state hashes literally equal" true
      (List.for_all (fun (_, h') -> Crypto.Hash.equal h h') rest)
  | [] -> Alcotest.fail "no state hashes")

(* The client owes requests for the clock time that passed, not per tick
   it got to run: with the loop stalled 30 ms in every 100 ms, a client
   that offered a fixed count per 10 ms tick would fall ~25% short. *)
let test_tcp_client_offers_rate_through_stalls () =
  let load = 2000. and seconds = 2. in
  let cluster = Transport.Cluster.create ~cfg:(tcp_cfg ()) ~load () in
  Fun.protect
    ~finally:(fun () -> Transport.Cluster.close cluster)
    (fun () ->
      let loop = Transport.Cluster.loop cluster in
      let next_stall = ref 0 in
      let stall =
        Transport.Loop.on_tick loop (fun () ->
            let now = Transport.Loop.now_ns loop in
            if now >= !next_stall then begin
              next_stall := now + 100_000_000;
              Unix.sleepf 0.03
            end)
      in
      Transport.Cluster.start_load cluster;
      let stop_at = Transport.Loop.now_ns loop + int_of_float (seconds *. 1e9) in
      Transport.Cluster.run_while cluster (fun _ -> Transport.Loop.now_ns loop < stop_at);
      Transport.Loop.remove_tick loop stall;
      let offered = Transport.Cluster.offered cluster in
      if float_of_int offered < 0.9 *. load *. seconds then
        Alcotest.failf "offered %d requests in %.0f s at %.0f req/s" offered seconds load)

let run_until_or_deadline cluster ~deadline_ns pred =
  Transport.Cluster.run_while cluster (fun c ->
      Transport.Loop.now_ns (Transport.Cluster.loop c) < deadline_ns && not (pred c));
  pred cluster

let test_tcp_cluster_survives_fault_and_reconnects () =
  let cfg = tcp_cfg () in
  let cluster = Transport.Cluster.create ~cfg ~load:2000. () in
  let loop = Transport.Cluster.loop cluster in
  let leader = Core.Config.leader_of_view cfg 1 in
  let victim = (leader + 1) mod 4 in
  Transport.Cluster.start_load cluster;
  let ok =
    run_until_or_deadline cluster
      ~deadline_ns:(Transport.Loop.now_ns loop + 15_000_000_000)
      (fun c -> Transport.Cluster.confirmed c >= 300)
  in
  checkb "cluster commits before the fault" true ok;
  (* Kill a non-leader mid-run: its sockets close, peers see EOF. *)
  Transport.Cluster.set_replica_down cluster victim true;
  let base = Transport.Cluster.confirmed cluster in
  let ok =
    run_until_or_deadline cluster
      ~deadline_ns:(Transport.Loop.now_ns loop + 15_000_000_000)
      (fun c -> Transport.Cluster.confirmed c >= base + 300)
  in
  checkb "cluster keeps committing with a replica down (n=4 tolerates f=1)" true ok;
  (* Revive: peers' capped-backoff redials and the victim's own dials
     must knit it back into the mesh. *)
  Transport.Cluster.set_replica_down cluster victim false;
  let victim_conn = Transport.Runtime.conn (Transport.Cluster.nodes cluster).(victim) in
  let ok =
    run_until_or_deadline cluster
      ~deadline_ns:(Transport.Loop.now_ns loop + 15_000_000_000)
      (fun _ -> Transport.Conn.live_connections victim_conn > 0)
  in
  checkb "revived replica reconnected via backoff" true ok;
  Transport.Cluster.stop_load cluster;
  let ok =
    run_until_or_deadline cluster
      ~deadline_ns:(Transport.Loop.now_ns loop + 20_000_000_000)
      Transport.Cluster.state_converged
  in
  checkb "revived replica caught back up to the common state" true ok;
  checkb "ledgers agree after the fault" true (Transport.Cluster.ledgers_agree cluster);
  Transport.Cluster.close cluster

(* The full four-layer metrics surface on the real stack: one short TCP
   run with a registry attached must leave series from the consensus
   layer (per-replica counters, a NON-empty confirm-latency histogram),
   the transport (frames/bytes mirrors), the verify pool and the store —
   and [--metrics-out]'s periodic dump must land on disk as the same
   parseable exposition text. *)
let test_tcp_cluster_metrics_all_layers () =
  let dir = Filename.temp_file "obs_cluster" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "metrics.prom" in
  let reg = Obs.Registry.create () in
  let r =
    Transport.Cluster.run ~cfg:(tcp_cfg ()) ~load:2000. ~duration:(Sim.Sim_time.s 25)
      ~drain:(Sim.Sim_time.s 10) ~min_confirmed:1000 ~obs:reg ~metrics_out:path
      ~metrics_interval_ns:100_000_000 ()
  in
  checkb "run confirmed requests" true (r.Transport.Cluster.confirmed >= 1000);
  let text = Obs.Registry.expose reg in
  let contains sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length text && (String.sub text i n = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun series -> checkb (series ^ " present") true (contains series))
    [ (* consensus *)
      "leopard_replica_commits_total";
      "leopard_replica_datablocks_total";
      "leopard_confirm_latency_ns_bucket";
      "leopard_confirmed_requests_total";
      (* transport *)
      "leopard_transport_frames_sent_total";
      "leopard_transport_bytes_recvd_total";
      "leopard_transport_coalesce_ratio_x1000";
      (* verify pool *)
      "leopard_verify_tasks_total";
      "leopard_verify_task_latency_ns";
      (* store *)
      "leopard_store_append_latency_ns";
      "leopard_store_rotations_total" ];
  checkb "confirm histogram non-empty" true
    (not (contains "leopard_confirm_latency_ns_count 0\n"));
  (* the periodic dump made it to disk and is the same exposition text
     shape (the final dump in [close] runs after the last scrape) *)
  checkb "dump file exists" true (Sys.file_exists path);
  let ic = open_in_bin path in
  let dumped = really_input_string ic (in_channel_length ic) in
  close_in ic;
  checkb "dump has HELP/TYPE headers" true
    (String.length dumped > 0 && String.sub dumped 0 1 = "#");
  Sys.remove path;
  Unix.rmdir dir

let () =
  Alcotest.run "transport"
    [ ( "frame",
        [ Alcotest.test_case "hello golden bytes" `Quick test_frame_hello_golden;
          Alcotest.test_case "msg golden bytes" `Quick test_frame_msg_golden;
          Alcotest.test_case "byte-at-a-time feed" `Quick test_frame_byte_at_a_time;
          Alcotest.test_case "coalesced feed" `Quick test_frame_coalesced;
          Alcotest.test_case "short read at eof" `Quick test_frame_short_read;
          Alcotest.test_case "error taxonomy & poisoning" `Quick test_frame_errors ] );
      ( "loop",
        [ Alcotest.test_case "same-instant FIFO" `Quick test_loop_timer_fifo;
          Alcotest.test_case "cancel" `Quick test_loop_cancel;
          Alcotest.test_case "schedule from callback" `Quick test_loop_schedule_from_callback;
          Alcotest.test_case "tick hook removal" `Quick test_loop_tick_remove;
          Alcotest.test_case "timer after a slow tick hook" `Quick
            test_loop_timer_after_slow_tick;
          Alcotest.test_case "undrained fd fires every round" `Quick test_loop_level_triggered;
          Alcotest.test_case "read and write watches coexist" `Quick
            test_loop_read_write_coexist;
          Alcotest.test_case "no callback on an fd closed mid-round" `Quick
            test_loop_unwatch_ready_fd;
          Alcotest.test_case "close releases the epoll fd" `Quick
            test_loop_close_releases_fd ] );
      ( "data plane",
        [ Alcotest.test_case "pool: reuse, poison, double free" `Quick
            test_pool_reuse_poison_double_free;
          Alcotest.test_case "multicast: wire bytes = per-peer encode" `Quick
            test_multicast_byte_equivalence;
          Alcotest.test_case "multicast: gather coalesces writes" `Quick
            test_multicast_coalesces_writes;
          Alcotest.test_case "multicast: 1-byte write torture" `Quick
            test_multicast_one_byte_torture;
          Alcotest.test_case "large frames: genuine kernel backpressure" `Quick
            test_large_frame_genuine_backpressure;
          Alcotest.test_case "multicast: delivery & recv counters" `Quick
            test_multicast_delivery_and_stats ] );
      ( "tcp cluster",
        [ Alcotest.test_case "rejects an n over the open-file limit" `Quick
            test_tcp_cluster_rejects_oversized_n;
          Alcotest.test_case "commits & state-hash agreement" `Quick
            test_tcp_cluster_commits_and_converges;
          Alcotest.test_case "client offers its rate through loop stalls" `Quick
            test_tcp_client_offers_rate_through_stalls;
          Alcotest.test_case "metrics cover all four layers" `Quick
            test_tcp_cluster_metrics_all_layers;
          Alcotest.test_case "fault: kill, survive, reconnect" `Quick
            test_tcp_cluster_survives_fault_and_reconnects ] ) ]
