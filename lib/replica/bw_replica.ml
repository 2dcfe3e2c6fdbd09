(** WAL-shipping replication: primary-side shipper, standby-side applier.

    The stream rides the ordinary wire protocol: the shipper is just a
    {!Bw_client} that sends [Wire.Repl] frames — SUBSCRIBE, then per
    shard a SNAPSHOT bootstrap (the newest checkpoint generation's
    pages), then WALCHUNK frames carrying raw committed commit-group
    payloads tailed past a {!Pagestore.Wal.cursor}. One connection, FIFO
    request/response, every frame acknowledged with the standby's applied
    record count — stream ordering and backpressure come for free.

    Shipping is asynchronous: the shipper polls the WAL from its own
    domain and never sits on the commit path, so an acknowledged write on
    the primary is durable locally (appended, and fsynced when enabled,
    to the primary's WAL file) but possibly not yet shipped. The
    zero-acknowledged-write-loss guarantee is restored at promotion time:
    PROMOTE can carry the dead primary's data directory, and the standby
    replays the on-disk WAL tail past what the stream delivered before
    flipping read-write — everything the primary ever acknowledged was
    in that file before the acknowledgement left the machine.

    Checkpoint generations hand off mid-stream: a full checkpoint on the
    primary retires the old WAL but keeps its in-memory image
    ({!Pagestore.Store}'s [prev_wal]), the shipper drains it to the end,
    and only then jumps to the new generation at record zero — whose
    checkpoint folded exactly the drained prefix, so the standby's state
    is continuous across the switch and never re-bootstraps. *)

module Wire = Bw_server.Wire

let err fmt = Format.kasprintf (fun m -> Wire.Err m) fmt

(* ------------------------------------------------------------------ *)
(* Standby-side applier                                                *)
(* ------------------------------------------------------------------ *)

module Follow (D : Harness.Drivers.S) = struct
  module T = D.Bw
  module S = D.Durable

  (* One followed shard. [tree] is replaced wholesale by a re-bootstrap
     or a promotion-time cold rebuild, so every serving closure re-reads
     the field per call instead of capturing the tree value. *)
  type shard = {
    sid : int;
    mutable tree : T.t;
    mutable s_gen : int;  (** WAL generation being followed; -1 = none *)
    mutable applied_recs : int;
        (** commit records of generation [s_gen] applied (absolute record
            index: the snapshot's folded prefix counts) *)
    mutable applied_ops : int;
    mutable p_recs : int;  (** primary's record total as of the last chunk *)
    mutable p_bytes : int;
        (** primary's unshipped byte backlog as of the last chunk (see
            {!Wire.repl_req}); already a lag, not a total *)
    mutable snap_items : int;  (** items loaded by the bootstrap in progress *)
    mutable armed : bool;  (** bootstrap complete; chunks accepted *)
  }

  type t = {
    shards : shard array;
    config : Bwtree.config option;
    obs : Bw_obs.sink;  (** replication counters and lag gauges *)
    obs_of : int -> Bw_obs.sink;  (** per-shard tree sinks *)
    mu : Mutex.t;
        (* serializes stream frames against PROMOTE (they may arrive on
           different server workers); readers never take it *)
    mutable sealed : bool;  (** no further stream frames accepted *)
    mutable promoted : bool;  (** writes allowed *)
    mutable chunks : int;  (* applied chunk count, for periodic GC *)
  }

  let fresh_tree t sid = T.create ?config:t.config ~obs:(t.obs_of sid) ()

  let create ?config ?(obs = Bw_obs.Null) ?(obs_of = fun _ -> Bw_obs.Null)
      ~shards () =
    let t =
      {
        shards = [||];
        config;
        obs;
        obs_of;
        mu = Mutex.create ();
        sealed = false;
        promoted = false;
        chunks = 0;
      }
    in
    let t =
      {
        t with
        shards =
          Array.init shards (fun i ->
              {
                sid = i;
                tree = fresh_tree t i;
                s_gen = -1;
                applied_recs = 0;
                applied_ops = 0;
                p_recs = 0;
                p_bytes = 0;
                snap_items = 0;
                armed = false;
              });
      }
    in
    (* Records/bytes behind the primary, as of the last chunk's piggybacked
       totals. Zero once promoted (no primary to be behind); a gauge, so
       racy reads are fine. *)
    let lag proj =
      if t.promoted then 0
      else Array.fold_left (fun a sh -> a + max 0 (proj sh)) 0 t.shards
    in
    Bw_obs.register_gauge obs Bw_obs.G_repl_lag_records (fun () ->
        lag (fun sh -> sh.p_recs - sh.applied_recs));
    Bw_obs.register_gauge obs Bw_obs.G_repl_lag_bytes (fun () ->
        lag (fun sh -> sh.p_bytes));
    t

  let promoted t = t.promoted

  let reset_shard t sh =
    sh.tree <- fresh_tree t sh.sid;
    sh.s_gen <- -1;
    sh.applied_recs <- 0;
    sh.applied_ops <- 0;
    sh.p_recs <- 0;
    sh.p_bytes <- 0;
    sh.snap_items <- 0;
    sh.armed <- false

  (* [Store.apply_op] with the caller's tid: the applier runs on a server
     worker whose tid is also striping epoch membership for concurrent
     readers, so the default tid-0 apply would collide with worker 0. *)
  let apply ~tid tree = function
    | S.W.W_insert (k, v) -> ignore (T.insert tree ~tid k v : bool)
    | S.W.W_update (k, v) -> ignore (T.update tree ~tid k v : bool)
    | S.W.W_upsert (k, v) -> T.upsert tree ~tid k v
    | S.W.W_remove k -> ignore (T.delete tree ~tid k 0 : bool)

  let handle_subscribe t ~key_type ~shards =
    if key_type <> D.K.name then
      err "key type mismatch: primary ships %s, follower serves %s" key_type
        D.K.name
    else if shards <> Array.length t.shards then
      err "shard count mismatch: primary has %d, follower has %d" shards
        (Array.length t.shards)
    else begin
      Array.iter (reset_shard t) t.shards;
      Wire.Repl_ok 0
    end

  let handle_snapshot t ~tid sh ~gen ~start_rec ~start_ops ~pages ~last ~items
      =
    if sh.s_gen <> gen || sh.armed then begin
      (* first chunk of a (re-)bootstrap for this shard *)
      reset_shard t sh;
      sh.s_gen <- gen;
      sh.applied_recs <- start_rec;
      sh.applied_ops <- start_ops
    end;
    let loaded = ref 0 in
    List.iter
      (fun payload ->
        let page = S.CP.decode_page payload in
        T.Page.iter_from page 0 (fun k v ->
            if T.insert sh.tree ~tid k v then incr loaded))
      pages;
    sh.snap_items <- sh.snap_items + !loaded;
    if Bw_obs.enabled t.obs then
      Bw_obs.add t.obs ~tid Bw_obs.C_repl_snapshot_pages (List.length pages);
    if last && sh.snap_items <> items then
      err "snapshot item count mismatch: loaded %d, manifest says %d"
        sh.snap_items items
    else begin
      if last then sh.armed <- true;
      Wire.Repl_ok sh.applied_recs
    end

  let handle_walchunk t ~tid sh ~gen ~from_rec ~groups ~p_recs ~p_bytes =
    if not sh.armed then err "shard %d is not bootstrapped" sh.sid
    else begin
      (* Generation handoff: the shipper drained the retired WAL to the
         end before jumping, and the new generation's checkpoint folded
         exactly that prefix — our state already is the new base. *)
      if gen > sh.s_gen && from_rec = 0 then begin
        sh.s_gen <- gen;
        sh.applied_recs <- 0;
        sh.applied_ops <- 0;
        sh.p_recs <- 0;
        sh.p_bytes <- 0
      end;
      if gen <> sh.s_gen then
        err "generation mismatch: chunk for gen %d, following gen %d" gen
          sh.s_gen
      else if from_rec <> sh.applied_recs then
        err "cursor mismatch: chunk starts at record %d, applied %d" from_rec
          sh.applied_recs
      else begin
        let ops = ref 0 and bytes = ref 0 in
        List.iter
          (fun payload ->
            let group = S.W.decode_ops payload in
            List.iter (apply ~tid sh.tree) group;
            ops := !ops + List.length group;
            bytes := !bytes + String.length payload;
            sh.applied_recs <- sh.applied_recs + 1)
          groups;
        sh.applied_ops <- sh.applied_ops + !ops;
        sh.p_recs <- max p_recs sh.applied_recs;
        sh.p_bytes <- p_bytes;
        if Bw_obs.enabled t.obs then begin
          Bw_obs.add t.obs ~tid Bw_obs.C_repl_records_applied
            (List.length groups);
          Bw_obs.add t.obs ~tid Bw_obs.C_repl_bytes_applied !bytes;
          Bw_obs.add t.obs ~tid Bw_obs.C_repl_ops_applied !ops
        end;
        t.chunks <- t.chunks + 1;
        if t.chunks land 63 = 0 then begin
          (* the applier is the only writer; fold its epoch periodically
             so reclamation keeps pace with the stream *)
          T.quiesce sh.tree ~tid;
          T.gc_advance sh.tree
        end;
        Wire.Repl_ok sh.applied_recs
      end
    end

  (* Promotion catch-up for one shard from the (dead) primary's on-disk
     state. Normal path: the directory's committed generation matches
     what we were streaming, so replay the WAL tail past [applied_recs] —
     everything the primary acknowledged was written to that file before
     the acknowledgement. Fallback (a checkpoint raced the crash, or this
     shard never bootstrapped): cold-load the whole committed state via
     the read-only [inspect_dir] recovery. Returns ops replayed. *)
  let catch_up ~tid t sh sdir =
    let tail_replay g =
      let wal, _ =
        S.W.open_dir ~readonly:true ~fsync:false
          ~dir:(Pagestore.Store.wal_dir sdir g)
          ()
      in
      let cur = Pagestore.Wal.fresh_cursor () in
      ignore (S.W.tail wal ~limit:sh.applied_recs cur (fun _ -> ()) : int);
      let ops = ref 0 in
      let recs =
        S.W.tail wal cur (fun payload ->
            let group = S.W.decode_ops payload in
            List.iter (apply ~tid sh.tree) group;
            ops := !ops + List.length group)
      in
      sh.applied_recs <- sh.applied_recs + recs;
      sh.applied_ops <- sh.applied_ops + !ops;
      !ops
    in
    match Pagestore.Store.read_current sdir with
    | Some g when g = sh.s_gen && sh.armed -> tail_replay g
    | _ -> (
        match
          S.inspect_dir ?config:t.config ~obs:(t.obs_of sh.sid) ~dir:sdir ()
        with
        | Some (tree, rs) ->
            sh.tree <- tree;
            sh.s_gen <- rs.Pagestore.Store.rs_gen;
            sh.applied_recs <- rs.Pagestore.Store.rs_wal_records;
            sh.armed <- true;
            rs.Pagestore.Store.rs_wal_ops
        | None -> 0)

  let handle_promote t ~tid ~data_dir =
    t.sealed <- true;
    let replayed = ref 0 in
    (match data_dir with
    | None -> ()
    | Some dir ->
        Array.iter
          (fun sh ->
            let sdir =
              if Array.length t.shards = 1 then dir
              else
                Filename.concat dir (Printf.sprintf "shard-%02d" sh.sid)
            in
            replayed := !replayed + catch_up ~tid t sh sdir)
          t.shards);
    t.promoted <- true;
    if Bw_obs.enabled t.obs then
      Bw_obs.incr t.obs ~tid Bw_obs.C_repl_promotions;
    Wire.Repl_ok !replayed

  let handle t ~tid (r : Wire.repl_req) : Wire.resp =
    Mutex.lock t.mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.mu)
      (fun () ->
        match r with
        | Wire.R_promote { data_dir } ->
            if t.promoted then Wire.Repl_ok 0
            else handle_promote t ~tid ~data_dir
        | _ when t.sealed -> err "stream sealed: replica was promoted"
        | Wire.R_subscribe { key_type; shards } ->
            handle_subscribe t ~key_type ~shards
        | Wire.R_snapshot { shard; gen; start_rec; start_ops; pages; last; items }
          ->
            if shard < 0 || shard >= Array.length t.shards then
              err "SNAPSHOT for shard %d of %d" shard (Array.length t.shards)
            else
              handle_snapshot t ~tid t.shards.(shard) ~gen ~start_rec
                ~start_ops ~pages ~last ~items
        | Wire.R_walchunk { shard; gen; from_rec; groups; p_recs; p_bytes } ->
            if shard < 0 || shard >= Array.length t.shards then
              err "WALCHUNK for shard %d of %d" shard (Array.length t.shards)
            else
              handle_walchunk t ~tid t.shards.(shard) ~gen ~from_rec ~groups
                ~p_recs ~p_bytes)

  (* The serving view of shard [sh]: reads pass through to the live tree,
     writes raise {!Index_iface.Read_only} until promotion. [batch] is
     [None] so BATCH frames fall back to the gated point ops. *)
  let gated_driver t sh : D.key Index_iface.driver =
    let gate () = if not t.promoted then raise Index_iface.Read_only in
    let hd_opt = function [] -> None | v :: _ -> Some v in
    {
      Index_iface.name = "OpenBw-Tree+follow";
      insert =
        (fun ~tid k v ->
          gate ();
          T.insert sh.tree ~tid k v);
      read = (fun ~tid k -> hd_opt (T.lookup sh.tree ~tid k));
      update =
        (fun ~tid k v ->
          gate ();
          T.update sh.tree ~tid k v);
      remove =
        (fun ~tid k ->
          gate ();
          T.delete sh.tree ~tid k 0);
      scan = (fun ~tid k ~n visit -> T.scan_iter sh.tree ~tid ~n k visit);
      batch = None;
      start_aux = ignore;
      stop_aux = ignore;
      thread_done = (fun ~tid -> T.quiesce sh.tree ~tid);
      memory_words = (fun () -> T.memory_words sh.tree);
    }

  let drivers t = Array.map (gated_driver t) t.shards
end

(** The monomorphic view a serving process needs: a backend to serve
    GET/SCAN/STATS (writes answer ERR until promotion), the handler for
    replication frames (plugged into [Server.config.repl_handler]), and
    the promotion flag. *)
type follower = {
  fo_backend : Index_iface.backend;
  fo_handle : tid:int -> Wire.repl_req -> Wire.resp;
  fo_promoted : unit -> bool;
}

(* Shard routing must mirror the primary's ([bwt_server] partitions
   from the key witness's [live_lo]) so shard indices in the stream line
   up with the follower's own partition. *)
let follower (type k) ?config ?obs ?obs_of ?lo ?hi ~shards
    ((module D) : k Harness.Drivers.t) =
  let module F = Follow (D) in
  let f = F.create ?config ?obs ?obs_of ~shards () in
  let drivers = F.drivers f in
  let driver =
    if shards = 1 then drivers.(0)
    else D.route (D.K.part ?lo ?hi shards) drivers
  in
  {
    fo_backend = D.backend driver;
    fo_handle = F.handle f;
    fo_promoted = (fun () -> F.promoted f);
  }

(* ------------------------------------------------------------------ *)
(* Primary-side shipper                                                *)
(* ------------------------------------------------------------------ *)

module Shipper = struct
  (* Where the stream stands in one shard's WAL. *)
  type pos = { mutable sp_gen : int; mutable sp_cur : Pagestore.Wal.cursor }

  type t = {
    host : string;
    port : int;
    key_type : string;
    sources : Pagestore.Store.repl_source array;
    obs : Bw_obs.sink;
    tid : int;  (* obs stripe; outside the server workers' tid range *)
    lag_recs : int Atomic.t;
    lag_bytes : int Atomic.t;
    stopping : bool Atomic.t;
    mutable domain : unit Domain.t option;
  }

  exception Resync
  (* The standby answered ERR or an unexpected ack: drop the connection
     and re-bootstrap from a fresh SUBSCRIBE. *)

  let create ?(obs = Bw_obs.Null) ?(tid = 64) ~host ~port ~key_type sources =
    let t =
      {
        host;
        port;
        key_type;
        sources;
        obs;
        tid;
        lag_recs = Atomic.make 0;
        lag_bytes = Atomic.make 0;
        stopping = Atomic.make false;
        domain = None;
      }
    in
    Bw_obs.register_gauge obs Bw_obs.G_repl_lag_records (fun () ->
        Atomic.get t.lag_recs);
    Bw_obs.register_gauge obs Bw_obs.G_repl_lag_bytes (fun () ->
        Atomic.get t.lag_bytes);
    t

  (* ~1 MiB of page payloads (but always at least one) per SNAPSHOT
     frame; well under the 16 MiB frame cap with framing overhead. *)
  let chunk_pages pages =
    let rec take acc nb n = function
      | [] -> (List.rev acc, [])
      | p :: rest when n > 0 && (nb = 0 || nb + String.length p <= 1_000_000)
        ->
          take (p :: acc) (nb + String.length p) (n - 1) rest
      | rest -> (List.rev acc, rest)
    in
    take [] 0 1024 pages

  let ship_snapshot t c i (p : pos) =
    let src = t.sources.(i) in
    let snap = src.Pagestore.Store.src_snapshot () in
    let rec send pages =
      let chunk, rest = chunk_pages pages in
      let last = rest = [] in
      ignore
        (Bw_client.repl c
           (Wire.R_snapshot
              {
                shard = i;
                gen = snap.Pagestore.Store.snap_gen;
                start_rec = snap.Pagestore.Store.snap_start_rec;
                start_ops = snap.Pagestore.Store.snap_start_ops;
                pages = chunk;
                last;
                items = snap.Pagestore.Store.snap_items;
              })
          : int);
      if Bw_obs.enabled t.obs then
        Bw_obs.add t.obs ~tid:t.tid Bw_obs.C_repl_snapshot_pages
          (List.length chunk);
      if not last then send rest
    in
    send snap.Pagestore.Store.snap_pages;
    p.sp_gen <- snap.Pagestore.Store.snap_gen;
    p.sp_cur <- snap.Pagestore.Store.snap_cursor

  let bootstrap t c pos =
    ignore
      (Bw_client.repl c
         (Wire.R_subscribe
            { key_type = t.key_type; shards = Array.length t.sources })
        : int);
    Array.iteri (fun i p -> ship_snapshot t c i p) pos

  (* One poll over every shard; returns whether anything shipped (or a
     generation handoff happened — either way, poll again promptly). *)
  let sweep t c pos =
    let progressed = ref false in
    Array.iteri
      (fun i (p : pos) ->
        let src = t.sources.(i) in
        let from_rec = p.sp_cur.Pagestore.Wal.c_rec in
        match
          src.Pagestore.Store.src_poll ~gen:p.sp_gen ~cursor:p.sp_cur
            ~limit:256
        with
        | Pagestore.Store.Rp_records [] -> ()
        | Pagestore.Store.Rp_records groups ->
            let bytes =
              List.fold_left (fun a g -> a + String.length g) 0 groups
            in
            (* [src_poll] already advanced the cursor past this chunk, so
               total minus cursor address is what will still be unshipped
               once the standby applies it — the byte lag, measured in
               the only place both ends of the stream can agree on. *)
            let p_recs, p_bytes =
              match src.Pagestore.Store.src_totals ~gen:p.sp_gen with
              | Some (recs, bytes) ->
                  (recs, max 0 (bytes - p.sp_cur.Pagestore.Wal.c_off))
              | None -> (0, 0)
            in
            let ack =
              Bw_client.repl c
                (Wire.R_walchunk
                   { shard = i; gen = p.sp_gen; from_rec; groups; p_recs;
                     p_bytes })
            in
            if ack <> p.sp_cur.Pagestore.Wal.c_rec then raise Resync;
            if Bw_obs.enabled t.obs then begin
              Bw_obs.add t.obs ~tid:t.tid Bw_obs.C_repl_records_shipped
                (List.length groups);
              Bw_obs.add t.obs ~tid:t.tid Bw_obs.C_repl_bytes_shipped bytes
            end;
            progressed := true
        | Pagestore.Store.Rp_handoff g ->
            p.sp_gen <- g;
            p.sp_cur <- Pagestore.Wal.fresh_cursor ();
            progressed := true
        | Pagestore.Store.Rp_gone -> raise Resync)
      pos;
    !progressed

  let update_lag t pos =
    let lr = ref 0 and lb = ref 0 in
    Array.iteri
      (fun i (p : pos) ->
        match t.sources.(i).Pagestore.Store.src_totals ~gen:p.sp_gen with
        | Some (recs, bytes) ->
            lr := !lr + max 0 (recs - p.sp_cur.Pagestore.Wal.c_rec);
            lb := !lb + max 0 (bytes - p.sp_cur.Pagestore.Wal.c_off)
        | None -> ())
      pos;
    Atomic.set t.lag_recs !lr;
    Atomic.set t.lag_bytes !lb

  let run t =
    let pos =
      Array.map
        (fun _ -> { sp_gen = -1; sp_cur = Pagestore.Wal.fresh_cursor () })
        t.sources
    in
    while not (Atomic.get t.stopping) do
      match Bw_client.connect ~host:t.host ~port:t.port () with
      | exception Unix.Unix_error _ -> Unix.sleepf 0.05
      | c ->
          (try
             bootstrap t c pos;
             (* Pacing. A short sleep after a productive sweep coalesces
                the next few commits into one WALCHUNK instead of
                shipping every record as its own tiny frame (per-frame
                cost — encode, two syscalls, the standby's ack — is what
                shows up on the primary's profile, not bytes). Idle
                sweeps back off exponentially to 50 ms: each wake-up is
                a run through every shard's commit mutex plus GC
                rendezvous for one more domain, pure overhead while
                nothing is written. Either way the added lag is bounded
                by the current interval. *)
             let idle = ref 0.005 in
             while not (Atomic.get t.stopping) do
               let progressed = sweep t c pos in
               update_lag t pos;
               if progressed then idle := 0.005
               else idle := Float.min (2. *. !idle) 0.05;
               Unix.sleepf !idle
             done;
             (* drain what was committed before the stop request, so a
                clean shutdown leaves the standby current *)
             let deadline = Unix.gettimeofday () +. 2.0 in
             while sweep t c pos && Unix.gettimeofday () < deadline do
               ()
             done;
             update_lag t pos
           with
          | Bw_client.Server_closed | Bw_client.Protocol_error _ | Resync
          | Unix.Unix_error _
          ->
            ());
          Bw_client.close c;
          if not (Atomic.get t.stopping) then Unix.sleepf 0.05
    done

  let start t =
    if t.domain <> None then invalid_arg "Shipper.start: already running";
    t.domain <- Some (Domain.spawn (fun () -> run t))

  (* Signals the shipper to drain and exit, then joins it. Call with the
     write load quiesced (a drained server) so the final sweeps converge. *)
  let stop t =
    Atomic.set t.stopping true;
    Option.iter Domain.join t.domain;
    t.domain <- None
end
