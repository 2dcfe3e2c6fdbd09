(* Spans for the traced run.

   A span is (layer, start, stop, parent, request id), recorded by the
   benchmark around each call it makes into a layer. Spans go into a
   preallocated buffer per domain and are written out when the run ends.
   Self time (duration minus the time covered by child spans) is computed
   as each span closes, so it stays exact when the raw buffer is full and
   further spans are only counted as dropped. *)

type layer = Client | Backend | Shard | Pagestore | Tree | Batch

let all_layers = [ Client; Backend; Shard; Pagestore; Tree; Batch ]
let n_layers = List.length all_layers

let index = function
  | Client -> 0
  | Backend -> 1
  | Shard -> 2
  | Pagestore -> 3
  | Tree -> 4
  | Batch -> 5

let name = function
  | Client -> "bw_client"
  | Backend -> "index_iface.backend"
  | Shard -> "bw_shard"
  | Pagestore -> "pagestore"
  | Tree -> "bwtree"
  | Batch -> "index_iface.batch"

let layer_of_index i = List.nth all_layers i

let capacity = 1 lsl 17
let max_depth = 16

type buf = {
  b_layer : int array;
  b_start : int array;
  b_stop : int array;
  b_parent : int array;
  b_req : int array;
  mutable len : int;
  mutable dropped : int;
  (* open spans, innermost last *)
  o_slot : int array;
  o_layer : int array;
  o_start : int array;
  o_covered : int array;
  o_req : int array;
  mutable depth : int;
  mutable next_req : int;
  self : Lat.t array;
  dur : Lat.t array;
}

let make_buf () =
  let ints n = Array.make n 0 in
  {
    b_layer = ints capacity;
    b_start = ints capacity;
    b_stop = ints capacity;
    b_parent = ints capacity;
    b_req = ints capacity;
    len = 0;
    dropped = 0;
    o_slot = ints max_depth;
    o_layer = ints max_depth;
    o_start = ints max_depth;
    o_covered = ints max_depth;
    o_req = ints max_depth;
    depth = 0;
    next_req = 0;
    self = Array.init n_layers (fun _ -> Lat.create ());
    dur = Array.init n_layers (fun _ -> Lat.create ());
  }

let bufs = ref []
let bufs_lock = Mutex.create ()
let domain_ids = Atomic.make 0

let key =
  Domain.DLS.new_key (fun () ->
      let b = make_buf () in
      (* request ids minted by different domains never collide *)
      b.next_req <- (1 + Atomic.fetch_and_add domain_ids 1) lsl 40;
      Mutex.protect bufs_lock (fun () -> bufs := b :: !bufs);
      b)

(* Spans are kept only while [recording] is set: the traced run turns it
   on for its measured phase, so warm-up and checks leave no spans. *)
let recording = Atomic.make false

let reserve b =
  if b.len < capacity then begin
    let s = b.len in
    b.len <- s + 1;
    s
  end
  else begin
    b.dropped <- b.dropped + 1;
    -1
  end

let enter b layer req =
  let d = b.depth in
  let req =
    if req >= 0 then req
    else if d > 0 then b.o_req.(d - 1)
    else begin
      b.next_req <- b.next_req + 1;
      b.next_req
    end
  in
  b.o_slot.(d) <- reserve b;
  b.o_layer.(d) <- index layer;
  b.o_req.(d) <- req;
  b.o_covered.(d) <- 0;
  b.depth <- d + 1;
  b.o_start.(d) <- Lat.now_ns ()

let leave b =
  let stop = Lat.now_ns () in
  let d = b.depth - 1 in
  b.depth <- d;
  let start = b.o_start.(d) and l = b.o_layer.(d) in
  let dur = stop - start in
  Lat.add b.dur.(l) dur;
  Lat.add b.self.(l) (dur - b.o_covered.(d));
  if d > 0 then b.o_covered.(d - 1) <- b.o_covered.(d - 1) + dur;
  let s = b.o_slot.(d) in
  if s >= 0 then begin
    b.b_layer.(s) <- l;
    b.b_start.(s) <- start;
    b.b_stop.(s) <- stop;
    b.b_parent.(s) <- (if d > 0 then b.o_slot.(d - 1) else -1);
    b.b_req.(s) <- b.o_req.(d)
  end;
  dur

(* [with_span layer f] runs [f] inside a span; [req] names the request
   when the caller knows it (the server-side root span), otherwise the
   span inherits its parent's or mints a fresh one. *)
let with_span ?(req = -1) ?on_close layer f =
  if not (Atomic.get recording) then f ()
  else begin
    let b = Domain.DLS.get key in
    enter b layer req;
    match f () with
    | r ->
        let start = b.o_start.(b.depth - 1) in
        let dur = leave b in
        (match on_close with Some g -> g ~start ~stop:(start + dur) | None -> ());
        r
    | exception e ->
        ignore (leave b : int);
        raise e
  end

(* A span timed by the caller (the served client, whose pipelined requests
   overlap, cannot use the per-domain stack). *)
let record layer ~req ~start ~stop ~covered =
  let b = Domain.DLS.get key in
  let l = index layer in
  Lat.add b.dur.(l) (stop - start);
  Lat.add b.self.(l) (stop - start - covered);
  let s = reserve b in
  if s >= 0 then begin
    b.b_layer.(s) <- l;
    b.b_start.(s) <- start;
    b.b_stop.(s) <- stop;
    b.b_parent.(s) <- -1;
    b.b_req.(s) <- req
  end

let reset () =
  Mutex.protect bufs_lock (fun () ->
      List.iter
        (fun b ->
          b.len <- 0;
          b.dropped <- 0;
          b.depth <- 0;
          Array.iter Lat.clear b.self;
          Array.iter Lat.clear b.dur)
        !bufs)

let merged pick layer =
  Mutex.protect bufs_lock (fun () ->
      Lat.merge (List.map (fun b -> (pick b).(index layer)) !bufs))

let self_of layer = merged (fun b -> b.self) layer
let dur_of layer = merged (fun b -> b.dur) layer

let stored () =
  Mutex.protect bufs_lock (fun () ->
      List.fold_left (fun a b -> a + b.len) 0 !bufs)

let dropped () =
  Mutex.protect bufs_lock (fun () ->
      List.fold_left (fun a b -> a + b.dropped) 0 !bufs)

(* One line per span: domain buffer, slot, layer, start_ns, stop_ns,
   parent slot (-1 = root), request id. *)
let write_out path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "buf\tslot\tlayer\tstart_ns\tstop_ns\tparent\treq\n";
      Mutex.protect bufs_lock (fun () ->
          List.iteri
            (fun bi b ->
              for s = 0 to b.len - 1 do
                Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\t%d\t%d\n" bi s
                  (name (layer_of_index b.b_layer.(s)))
                  b.b_start.(s) b.b_stop.(s) b.b_parent.(s) b.b_req.(s)
              done)
            !bufs))
