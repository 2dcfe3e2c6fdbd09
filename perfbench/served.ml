(* served-mixed: Bw_server (one worker) over a 2-shard durable forest
   (WAL commit per write, see [fsync] below). One client domain drives two
   connections closed-loop, each keeping [depth] single requests in flight:
   50% GET, 45% PUT-update, 5% SCAN of 1-95 keys. Latency is timed from
   when each request was sent. *)

open Common
module Wire = Bw_server.Wire
module Kc = Bw_util.Key_codec

let conns = 2
let base_keys = 200_000
(* Requests in flight per connection: enough that the server's worker
   always has a request waiting, so neither side sleeps between requests
   and no wake-up latency of the host enters the figures. *)
let depth = 8
let warm_reqs = 100_000
let stream_len = 1 lsl 17
let load_batch = 256
let scan_max = 95
(* Commits are not fsynced: with fsync on, p50 latency and CPU per request
   swung by a third from run to run with the host's disk, which left
   nothing else on this workload measurable. *)
let fsync = false

(* Per-request state is kept in a ring indexed by request id; it must
   hold more than the [conns * depth] requests in flight. *)
let ring = Stack.span_ring
let () = assert (ring > conns * depth)

(* One connection's request stream, cycled. *)
type stream = {
  kind : Bytes.t;  (* Stack.Matcher.k_read / k_write / k_scan *)
  key : int array;  (* index into the loaded keys *)
  n : int array;  (* scan budget *)
  mutable pos : int;
}

(* Keys are split between the connections, and every request for a key
   goes to its connection: each key then has one writer, so its last
   acknowledged value is known, and a server-side span can only belong to
   the head request of one connection. *)
let owner k = k land 1

(* The index of the first of the ascending [sorted] keys that is >= [k]. *)
let lower_bound sorted k =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if sorted.(mid) < k then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length sorted)

let gen_streams cfg keys sorted =
  let rng = Bw_util.Rng.create ~seed:(Int64.of_int ((cfg.seed * 31_337) + 5)) in
  let z = Bw_util.Zipf.create ~theta:0.99 ~n:(Array.length keys) () in
  (* scans that start within [scan_max] keys below the shard boundary
     continue into the next shard *)
  let cut = lower_bound sorted (Bw_shard.Part.floor_int Stack.part 1) in
  let index_of = Hashtbl.create (Array.length keys) in
  Array.iteri (fun i k -> Hashtbl.replace index_of k i) keys;
  let len = scaled cfg stream_len in
  let st =
    Array.init conns (fun _ ->
        { kind = Bytes.make len '\000'; key = Array.make len 0; n = Array.make len 0; pos = 0 })
  in
  while Array.exists (fun s -> s.pos < len) st do
    let p = Bw_util.Rng.next_int rng 100 in
    let idx = Bw_util.Zipf.sample_scrambled z rng in
    let kind, idx, n =
      if p < 50 then (Stack.Matcher.k_read, idx, 0)
      else if p < 95 then (Stack.Matcher.k_write, idx, 0)
      else
        let n = 1 + Bw_util.Rng.next_int rng scan_max in
        if Bw_util.Rng.next_int rng 5 = 0 && cut > 0 then
          ( Stack.Matcher.k_scan,
            Hashtbl.find index_of
              sorted.(max 0 (cut - 1 - Bw_util.Rng.next_int rng scan_max)),
            n )
        else (Stack.Matcher.k_scan, idx, n)
    in
    let s = st.(owner keys.(idx)) in
    if s.pos < len then begin
      Bytes.set s.kind s.pos (Char.chr kind);
      s.key.(s.pos) <- idx;
      s.n.(s.pos) <- n;
      s.pos <- s.pos + 1
    end
  done;
  Array.iter (fun s -> s.pos <- 0) st;
  st

(* ---- set-up ---------------------------------------------------------- *)

let load_keys port keys =
  let c = Bw_client.connect ~port () in
  Fun.protect
    ~finally:(fun () -> Bw_client.close c)
    (fun () ->
      let bad = ref 0 in
      let n = Array.length keys in
      let i = ref 0 in
      while !i < n do
        let m = min load_batch (n - !i) in
        let reqs =
          List.init m (fun j ->
              let k = keys.(!i + j) in
              Wire.Put (Wire.Insert, Kc.of_int k, Oracle.loaded k))
        in
        (match Bw_client.batch c reqs with
        | rs ->
            List.iter (function Wire.Applied true -> () | _ -> incr bad) rs;
            bad := !bad + (m - List.length rs)
        | exception (Bw_client.Protocol_error _ | Bw_client.Server_closed) ->
            bad := !bad + m);
        i := !i + m
      done;
      !bad)

(* ---- closed-loop client ---------------------------------------------- *)

type client = {
  cs : Bw_client.t array;
  pending : int Queue.t array;  (* request ids in flight, per conn *)
  buf : Bytes.t;
  st : stream array;
  (* per request, in slot [id land (ring - 1)] *)
  f_pos : int array;  (* position in its connection's stream *)
  f_sent : int array;
  f_value : int array;  (* PUT value *)
  mutable next_id : int;
}

let slot id = id land (ring - 1)

let send cl keys logs ?matcher c =
  let s = cl.st.(c) in
  let t = s.pos in
  s.pos <- (if t + 1 = Bytes.length s.kind then 0 else t + 1);
  let id = cl.next_id in
  cl.next_id <- id + 1;
  let j = slot id in
  let kind = Char.code (Bytes.get s.kind t) and k = keys.(s.key.(t)) in
  let bk = Kc.of_int k in
  let req =
    if kind = Stack.Matcher.k_read then Wire.Get bk
    else if kind = Stack.Matcher.k_write then begin
      let seq = Oracle.Log.append logs.(c) k in
      cl.f_value.(j) <- Oracle.encode ~writer:c ~seq;
      Wire.Put (Wire.Update, bk, cl.f_value.(j))
    end
    else Wire.Scan (bk, s.n.(t))
  in
  (match matcher with
  | Some m -> Stack.Matcher.push m ~conn:c ~kind ~key:bk ~req:id
  | None -> ());
  cl.f_pos.(j) <- t;
  cl.f_sent.(j) <- Lat.now_ns ();
  Bw_client.send cl.cs.(c) req;
  Queue.add id cl.pending.(c)

(* Read what the server has sent on connection [c] and hand every whole
   reply to [on_reply c id now resp]. *)
let receive cl c on_reply =
  let bc = cl.cs.(c) in
  match Unix.read bc.Bw_client.fd cl.buf 0 (Bytes.length cl.buf) with
  | 0 -> raise Bw_client.Server_closed
  | n ->
      let now = Lat.now_ns () in
      Wire.Decoder.feed bc.Bw_client.dec cl.buf n;
      let rec frames () =
        match Wire.Decoder.next bc.Bw_client.dec with
        | `Frame payload ->
            ignore (Queue.pop bc.Bw_client.inflight);
            let id = Queue.pop cl.pending.(c) in
            on_reply c id now (Wire.decode_resp payload);
            frames ()
        | `Need_more -> ()
        | `Framing m -> raise (Bw_client.Protocol_error m)
      in
      frames ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let in_flight cl = Array.fold_left (fun a q -> a + Queue.length q) 0 cl.pending

(* Keep [depth] requests in flight on every connection until [stop ()],
   then drain. *)
let closed_loop cl keys logs ?matcher ?(tick = ignore) ?(idle = ref 0) ~stop on_reply =
  let fds = Array.map (fun c -> c.Bw_client.fd) cl.cs in
  let top_up c =
    while Queue.length cl.pending.(c) < depth && not (stop ()) do
      send cl keys logs ?matcher c
    done;
    Bw_client.flush cl.cs.(c)
  in
  Array.iteri (fun c _ -> top_up c) cl.cs;
  let last_progress = ref (Lat.now_ns ()) in
  while in_flight cl > 0 do
    tick ();
    let t0 = Lat.now_ns () in
    let readable, _, _ =
      try Unix.select (Array.to_list fds) [] [] 0.05
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    let t1 = Lat.now_ns () in
    idle := !idle + (t1 - t0);
    if readable <> [] then last_progress := t1;
    Array.iteri
      (fun c fd ->
        if List.mem fd readable then begin
          receive cl c on_reply;
          top_up c
        end)
      fds;
    if Lat.now_ns () - !last_progress > 30_000_000_000 then
      failwith "served-mixed: no reply for 30 s"
  done

(* ---- the traced run's layers and self-check --------------------------- *)

(* Per-layer readings of the traced served-mixed run, and its self-check.

   Each request's client span (send to reply, the benchmark's clock on the
   client domain) is the root; the backend span of the same request
   (matched by connection order, the benchmark's clock on the server's
   worker) covers the forest, pagestore and tree spans nested inside it.
   The server times the same requests itself, around evaluating and
   encoding each one, on its own clock (the Lat_req_* series). Self times
   of the layers are: client and wire = client spans - server time;
   bw_server = server time - backend spans; then each span layer's own
   self time. They add up to the client spans by construction, so that sum
   checks nothing. What is checked is what could come out otherwise: the
   server must count exactly the requests sent, every request must have
   one server-side span inside its client span, and the three
   independently timed totals must nest (backend <= server <= client)
   within [self_check_tolerance] of the client total, i.e. no layer's self
   time may come out negative. *)

let self_check_tolerance = 0.01

(* The traced run's per-request totals, taken as each reply arrives. *)
type acc = {
  mutable client_sum : int;
  mutable backend_sum : int;
  mutable outside : int;  (* requests without a contained server-side span *)
  get_client : Lat.t;
  get_backend : Lat.t;
}

let new_acc () =
  { client_sum = 0; backend_sum = 0; outside = 0; get_client = Lat.create ();
    get_backend = Lat.create () }

(* Request [id] was sent at [sent] and answered at [recv]. The server's
   worker wrote its backend span into the ring slot of [id] before it
   sent the reply, id last. *)
let account acc (spans : Stack.backend_spans) ~id ~kind ~sent ~recv =
  let j = slot id in
  let dur = recv - sent in
  let matched = spans.Stack.bs_req.(j) = id in
  let bs = spans.Stack.bs_start.(j) and be = spans.Stack.bs_stop.(j) in
  let covered = if matched then be - bs else 0 in
  if (not matched) || bs < sent || be > recv then acc.outside <- acc.outside + 1;
  acc.client_sum <- acc.client_sum + dur;
  acc.backend_sum <- acc.backend_sum + covered;
  Span.record Span.Client ~req:id ~start:sent ~stop:recv ~covered;
  if kind = Stack.Matcher.k_read then begin
    Lat.add acc.get_client dur;
    Lat.add acc.get_backend covered
  end

let traced_layers ~trees ~m0 ~m1 ~snap ~(spans : Stack.backend_spans)
    ~(acc : acc) ~n ~shard_ops ~pending_max ~queued_max
    ~reopen_s ~idle ~achieved (p : phase) =
  let client_sum = acc.client_sum and backend_sum = acc.backend_sum in
  let served f =
    match (m0.snap, m1.snap) with
    | Some s0, Some s1 ->
        List.fold_left
          (fun a series ->
            let v s = match histo s series with Some h -> f h | None -> 0 in
            a + v s1 - v s0)
          0
          [ Bw_obs.Lat_req_get; Bw_obs.Lat_req_put; Bw_obs.Lat_req_scan ]
    | _ -> 0
  in
  let server_sum = served (fun h -> h.Bw_obs.hs_sum)
  and server_n = served (fun h -> h.Bw_obs.hs_count) in
  let share x = if client_sum = 0 then 0. else float_of_int x /. float_of_int client_sum in
  let server_self = share (server_sum - backend_sum)
  and client_self = share (client_sum - server_sum) in
  let ok =
    server_n = n && acc.outside = 0 && spans.Stack.bs_unmatched = 0
    && server_self >= -.self_check_tolerance
    && client_self >= -.self_check_tolerance
  in
  Printf.printf
    "trace self-check: %d of %d requests timed by the server; totals: client \
     %d ns >= server %d ns >= backend %d ns (bw_server self %.4f, client+wire \
     self %.4f of client time, tolerance -%.2f); %d requests without a \
     contained server span, %d unmatched server spans: %s\n"
    server_n n client_sum server_sum backend_sum server_self client_self
    self_check_tolerance acc.outside spans.Stack.bs_unmatched
    (if ok then "PASS" else "FAIL");
  let req_p q =
    match histo snap Bw_obs.Lat_req_get with
    | Some h -> float_of_int (if q = 0.5 then h.Bw_obs.hs_p50 else h.Bw_obs.hs_p99)
    | None -> 0.
  in
  let delta c =
    match (m0.snap, m1.snap) with
    | Some s0, Some s1 -> counter_delta s0 s1 c
    | _ -> 0
  in
  let writes = Lat.count p.write in
  let reqs = delta Bw_obs.C_net_requests in
  let total_shard = Array.fold_left ( + ) 0 shard_ops in
  tree_layers ~trees ~m0 ~m1 ~ops:p.ops ~pending_max p
  @ [
      ("bw_shard.self_ns_p50", span_p Span.Shard 0.5);
      ( "bw_shard.max_share",
        per (Array.fold_left max 0 shard_ops) total_shard );
      ("pagestore.commits_per_write", per (delta Bw_obs.C_wal_appends) writes);
      ("pagestore.fsyncs_per_write", per (delta Bw_obs.C_wal_fsyncs) writes);
      ("pagestore.wal_bytes_per_write", per (delta Bw_obs.C_wal_bytes) writes);
      ("pagestore.self_ns_p50", span_p Span.Pagestore 0.5);
      ("pagestore.self_ns_p99", span_p Span.Pagestore Lat.tail_q);
      ("pagestore.reopen_s", reopen_s);
      ("bw_server.self_ns_p50", req_p 0.5 -. Lat.quantile acc.get_backend 0.5);
      ("bw_server.self_ns_p99", req_p Lat.tail_q -. Lat.quantile acc.get_backend Lat.tail_q);
      ("bw_server.bytes_in_per_req", per (delta Bw_obs.C_net_bytes_in) reqs);
      ("bw_server.bytes_out_per_req", per (delta Bw_obs.C_net_bytes_out) reqs);
      ("bw_server.queued_bytes_max", float_of_int queued_max);
      ("bw_server.self_share", server_self);
      ("bw_client.rtt_minus_server_ns_p50", Lat.quantile acc.get_client 0.5 -. req_p 0.5);
      ("bw_client.self_share", client_self);
      ("loadgen.idle_share", idle);
      ("loadgen.achieved_rate", achieved);
    ],
  ok

(* ---- the run --------------------------------------------------------- *)

let run_once cfg ~traced ~setups =
  let nkeys = scaled cfg base_keys in
  let keys = Array.init nkeys (Local.key_of cfg) in
  let sorted = Array.copy keys in
  Array.sort compare sorted;
  let warm = scaled cfg warm_reqs in
  let logs = Array.init conns (fun _ -> Oracle.Log.create ()) in
  let last_acked = Array.map Oracle.loaded keys in
  let matcher = if traced then Some (Stack.Matcher.create conns) else None in
  let dir = Filename.concat cfg.dir "served" in
  let bad = ref 0 in
  let set_up () =
    time (fun () ->
        let s = Stack.open_served ~dir ~fsync ?matcher ~wrap:cfg.wrap () in
        bad := !bad + load_keys (Bw_server.Server.port s.server) keys;
        s)
  in
  let rec go n acc =
    settle ();
    let f = Host.factor_now () in
    let s, t = set_up () in
    let t = (t, f) in
    if n > 1 then begin
      Stack.stop_served s;
      go (n - 1) (t :: acc)
    end
    else (s, List.rev (t :: acc))
  in
  let s, setup_times = go setups [] in
  let port = Bw_server.Server.port s.server in
  let cl =
    {
      cs = Array.init conns (fun _ -> Bw_client.connect ~port ());
      pending = Array.init conns (fun _ -> Queue.create ());
      buf = Bytes.create 65_536;
      st = gen_streams cfg keys sorted;
      f_pos = Array.make ring 0;
      f_sent = Array.make ring 0;
      f_value = Array.make ring 0;
      next_id = 0;
    }
  in
  let sl = Slices.create ~seconds:cfg.seconds in
  let marks = Cpu_marks.create sl in
  let host = Host.create sl in
  let acc = new_acc () in
  let measuring = ref false and completed = ref 0 and last_recv = ref 0 in
  let on_reply c id now resp =
    let j = slot id in
    let t = cl.f_pos.(j) and st = cl.st.(c) in
    let kind = Char.code (Bytes.get st.kind t) and idx = st.key.(t) in
    let k = keys.(idx) in
    let ok =
      match resp with
      | Wire.Value (Some v) when kind = Stack.Matcher.k_read ->
          Oracle.valid_value logs k v
      | Wire.Applied true when kind = Stack.Matcher.k_write ->
          last_acked.(idx) <- cl.f_value.(j);
          true
      | Wire.Scanned items when kind = Stack.Matcher.k_scan ->
          let p = lower_bound sorted k in
          let want = min st.n.(t) (Array.length sorted - p) in
          List.length items = want
          && List.for_all2
               (fun i (bk, v) ->
                 let k' = Kc.to_int bk in
                 k' = sorted.(p + i) && Oracle.valid_value logs k' v)
               (List.init want Fun.id) items
      | _ -> false
    in
    if not ok then incr bad;
    if !measuring then begin
      let sent = cl.f_sent.(j) in
      incr completed;
      last_recv := now;
      let i = Slices.slot sl sent in
      sl.cnt.(i) <- sl.cnt.(i) + 1;
      Lat.add
        (if kind = Stack.Matcher.k_read then sl.rd.(i)
         else if kind = Stack.Matcher.k_write then sl.wr.(i)
         else sl.sc.(i))
        (now - sent);
      match s.spans with
      | Some spans -> account acc spans ~id ~kind ~sent ~recv:now
      | None -> ()
    end
  in
  closed_loop cl keys logs ~stop:(fun () -> cl.next_id >= warm) on_reply;
  settle ();
  let trees = Array.to_list (Array.map Stack.Durable.tree s.stores) in
  let m0 = if traced then Some (mark trees s.sreg) else None in
  if traced then begin_trace ();
  measuring := true;
  (* The traced run samples the epoch backlog and the server's queued
     bytes every 10 ms: a registry snapshot costs the client loop tens of
     microseconds, which it must not spend on every request. *)
  let pmax = ref 0 and qmax = ref 0 and next_sample = ref 0 in
  let tick () =
    let now = Lat.now_ns () in
    Cpu_marks.sample marks sl now;
    Host.sample host sl now;
    if traced then begin
      if now >= !next_sample then begin
        next_sample := now + 10_000_000;
        pmax := max !pmax (pending trees);
        match s.sreg with
        | Some reg ->
            qmax := max !qmax (gauge (Bw_obs.snapshot reg) Bw_obs.G_net_queued_bytes)
        | None -> ()
      end
    end
  in
  let first = cl.next_id and idle = ref 0 in
  let g0 = Gc.quick_stat () and c0 = Lat.cpu_s () in
  let t0 = Lat.now_ns () in
  sl.base <- t0;
  let deadline = t0 + int_of_float (cfg.seconds *. 1e9) in
  closed_loop cl keys logs ?matcher ~tick ~idle
    ~stop:(fun () -> Lat.now_ns () >= deadline)
    on_reply;
  let c1 = Lat.cpu_s () in
  Cpu_marks.finish marks;
  let g1 = Gc.quick_stat () in
  measuring := false;
  if traced then end_trace ();
  let m1 = if traced then Some (mark trees s.sreg) else None in
  Array.iter Bw_client.close cl.cs;
  let snap = Option.map Bw_obs.snapshot s.sreg in
  Stack.stop_served s;
  let mem_words = Stack.live_words trees s.backend.memory_words in
  (* durability: every key must read back its last acknowledged value *)
  let reopened, reopen_s = time (fun () -> Stack.reopen_trees dir) in
  Array.iteri
    (fun idx k ->
      let st = reopened.(Bw_shard.Part.shard_of_int Stack.part k) in
      match Stack.Bw.lookup (Stack.Durable.tree st) ~tid:0 k with
      | [ v ] when v = last_acked.(idx) -> ()
      | _ -> incr bad)
    keys;
  Array.iter Stack.Durable.close reopened;
  Stack.rm_rf dir;
  let secs = float_of_int (!last_recv - t0) /. 1e9 in
  let phase = phase_of sl marks host ~secs ~cpu:(c1 -. c0) ~gc:(g0, g1) in
  let layers, trace_ok =
    match (m0, m1, snap, s.spans) with
    | Some m0, Some m1, Some snap, Some spans ->
        traced_layers ~trees ~m0 ~m1 ~snap ~spans ~acc ~n:(cl.next_id - first)
          ~shard_ops:s.shard_ops ~pending_max:!pmax ~queued_max:!qmax ~reopen_s
          ~idle:(float_of_int !idle /. 1e9 /. secs)
          ~achieved:(float_of_int !completed /. secs) phase
    | _ -> ([], true)
  in
  {
    setups = setup_times;
    phase;
    attempted = (nkeys * setups) + cl.next_id;
    failed = !bad;
    live_keys = nkeys;
    mem_words;
    layers;
    trace_ok;
    env =
      env_common cfg
      @ [
          ("keys", string_of_int nkeys);
          ("connections", string_of_int conns);
          ("in_flight_per_connection", string_of_int depth);
          ("server_workers", "1");
          ("shards", string_of_int Stack.shards);
          ("loop", "closed");
          ("ops", string_of_int !completed);
          ("fsync", if fsync then "every commit" else "none");
        ];
  }
