(* The stacks under test, assembled from the library's public
   constructors, and the wrappers the benchmark puts between layers:
   spans (traced run only) and injected faults (self-test only). *)

open Index_iface
module Bw = Harness.Drivers.Bw_int
module Durable = Harness.Drivers.Durable_int
module Server = Bw_server.Server

(* ---- span wrappers ---------------------------------------------------- *)

let traced_int ?(on_call = ignore) layer (d : int driver) : int driver =
  let sp f = Span.with_span layer f in
  {
    d with
    insert = (fun ~tid k v -> on_call (); sp (fun () -> d.insert ~tid k v));
    read = (fun ~tid k -> on_call (); sp (fun () -> d.read ~tid k));
    update = (fun ~tid k v -> on_call (); sp (fun () -> d.update ~tid k v));
    remove = (fun ~tid k -> on_call (); sp (fun () -> d.remove ~tid k));
    scan =
      (fun ~tid k ~n visit -> on_call (); sp (fun () -> d.scan ~tid k ~n visit));
    batch =
      Option.map
        (fun run ~tid ops -> on_call (); sp (fun () -> run ~tid ops))
        d.batch;
  }

(* Server-side spans carry the id of the request they serve. The server
   evaluates each connection's requests in arrival order, so the client
   queues (kind, key, id) per connection as it sends, and the backend
   wrapper takes the connection head that matches the call it sees. *)
module Matcher = struct
  type t = { lock : Mutex.t; queues : (int * string * int) Queue.t array }

  let k_read = 0
  let k_write = 1
  let k_scan = 2

  let create conns =
    { lock = Mutex.create (); queues = Array.init conns (fun _ -> Queue.create ()) }

  let push t ~conn ~kind ~key ~req =
    Mutex.protect t.lock (fun () -> Queue.add (kind, key, req) t.queues.(conn))

  (* The client sends all requests for a key on one connection, so at
     most one head can match; -1 when none does. *)
  let take t ~kind ~key =
    Mutex.protect t.lock (fun () ->
        let found = ref (-1) in
        Array.iter
          (fun q ->
            match Queue.peek_opt q with
            | Some (k, key', req) when !found < 0 && k = kind && key' = key ->
                ignore (Queue.pop q);
                found := req
            | _ -> ())
          t.queues;
        !found)
end

(* Per-request server-side record of the traced served run: a ring
   indexed by request id, which must hold more than the requests in
   flight. The id is written last, so a reader that finds it in the slot
   finds that request's span there. *)
let span_ring = 1024

type backend_spans = {
  bs_req : int array;
  bs_start : int array;
  bs_stop : int array;
  mutable bs_unmatched : int;
}

let backend_spans () =
  {
    bs_req = Array.make span_ring (-1);
    bs_start = Array.make span_ring 0;
    bs_stop = Array.make span_ring 0;
    bs_unmatched = 0;
  }

let traced_backend m spans (b : backend) : backend =
  let sp kind key f =
    if not (Atomic.get Span.recording) then f ()
    else begin
      let req = Matcher.take m ~kind ~key in
      if req < 0 then spans.bs_unmatched <- spans.bs_unmatched + 1;
      Span.with_span ~req
        ~on_close:(fun ~start ~stop ->
          if req >= 0 then begin
            let j = req land (span_ring - 1) in
            spans.bs_start.(j) <- start;
            spans.bs_stop.(j) <- stop;
            spans.bs_req.(j) <- req
          end)
        Span.Backend f
    end
  in
  {
    b with
    read = (fun ~tid k -> sp Matcher.k_read k (fun () -> b.read ~tid k));
    update =
      (fun ~tid k v -> sp Matcher.k_write k (fun () -> b.update ~tid k v));
    scan =
      (fun ~tid k ~n visit ->
        sp Matcher.k_scan k (fun () -> b.scan ~tid k ~n visit));
  }

(* ---- fault injection (self-test) ------------------------------------- *)

(* Drops one write in [every] (reporting success without applying it) and
   answers one read in [every] with the previous read's value. *)
let faulty ~every (d : int driver) : int driver =
  let writes = Atomic.make 0 and reads = Atomic.make 0 in
  let last = Atomic.make None in
  let drop () = (Atomic.fetch_and_add writes 1 + 1) mod every = 0 in
  {
    d with
    insert = (fun ~tid k v -> if drop () then true else d.insert ~tid k v);
    update = (fun ~tid k v -> if drop () then true else d.update ~tid k v);
    remove = (fun ~tid k -> if drop () then true else d.remove ~tid k);
    read =
      (fun ~tid k ->
        let r = d.read ~tid k in
        let prev = Atomic.exchange last r in
        if (Atomic.fetch_and_add reads 1 + 1) mod every = 0 then prev else r);
    batch = None;
  }

(* ---- in-process tree ------------------------------------------------- *)

type local = { tree : Bw.t; driver : int driver; reg : Bw_obs.t option }

let open_local ~traced ~wrap () =
  let reg = if traced then Some (Bw_obs.create ()) else None in
  let obs = match reg with Some r -> Bw_obs.sink r | None -> Bw_obs.Null in
  let tree = Bw.create ~obs () in
  let d = wrap (Harness.Drivers.bw_int_driver_of_tree tree) in
  let d = if traced then traced_int Span.Tree d else d in
  d.start_aux ();
  { tree; driver = d; reg }

let close_local l = l.driver.stop_aux ()

(* Words reachable from the index once every worker is quiescent and the
   epoch has reclaimed what it retired: garbage still waiting for the
   epoch would otherwise count as live, by how recently it last ran. *)
let live_words trees memory_words =
  List.iter (fun t -> Epoch.flush (Bw.epoch t)) trees;
  Gc.full_major ();
  memory_words ()

(* ---- served stack: Bw_server over a 2-shard durable forest ----------- *)

let shards = 2
let part = Bw_shard.Part.make_int ~lo:0 ~hi:max_int shards

type served = {
  dir : string;
  stores : Durable.t array;
  backend : backend;
  server : Server.t;
  sreg : Bw_obs.t option;
  shard_ops : int array;
  spans : backend_spans option;
}

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | Unix.S_DIR ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if path <> "" && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let shard_dir dir i = Filename.concat dir (Printf.sprintf "shard-%d" i)

(* [matcher] is given in the traced run only. *)
let open_served ~dir ~fsync ?matcher ~wrap () =
  let traced = Option.is_some matcher in
  rm_rf dir;
  let sreg = if traced then Some (Bw_obs.create ()) else None in
  let obs = match sreg with Some r -> Bw_obs.sink r | None -> Bw_obs.Null in
  let stores =
    Array.init shards (fun i ->
        fst (Durable.open_dir ~obs ~fsync ~dir:(shard_dir dir i) ()))
  in
  let shard_ops = Array.make shards 0 in
  let shard i st =
    let t = Harness.Drivers.bw_int_driver_of_tree (Durable.tree st) in
    let t = if traced then traced_int Span.Tree t else t in
    let p = wrap (Durable.wrap_driver st t) in
    if traced then
      traced_int
        ~on_call:(fun () -> shard_ops.(i) <- shard_ops.(i) + 1)
        Span.Pagestore p
    else p
  in
  let forest = Bw_shard.route_int part (Array.mapi shard stores) in
  let forest = if traced then traced_int Span.Shard forest else forest in
  let backend = backend_of_int_driver forest in
  let spans = Option.map (fun _ -> backend_spans ()) matcher in
  let backend =
    match (matcher, spans) with
    | Some m, Some s -> traced_backend m s backend
    | _ -> backend
  in
  let server =
    Server.start
      ~config:{ Server.default_config with Server.workers = 1; obs }
      backend
  in
  { dir; stores; backend; server; sreg; shard_ops; spans }

let stop_served s =
  Server.stop s.server;
  Array.iter Durable.close s.stores

(* Recover every shard from disk, as a restarted server would. *)
let reopen_trees dir =
  Array.init shards (fun i ->
      let st, _ = Durable.open_dir ~fsync:false ~dir:(shard_dir dir i) () in
      st)
