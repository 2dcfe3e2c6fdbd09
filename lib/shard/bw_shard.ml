open Index_iface

(* The slice coordinates and stride arithmetic live in {!Bw_cluster}
   now — the cluster partition table speaks the same coordinate system,
   so a process-local forest and a multi-node fleet route keys
   identically. [Part] keeps its original API as a thin veneer. *)
module Part = struct
  module U = Bw_cluster.Uniform
  module Slice = Bw_cluster.Slice

  type t = U.t

  let make ?lo ?hi n =
    if n < 1 then invalid_arg "Bw_shard.Part.make: shard count < 1";
    try U.make ?lo ?hi n
    with Invalid_argument _ -> invalid_arg "Bw_shard.Part.make: hi must be > lo"

  let make_int ?lo ?hi n =
    if n < 1 then invalid_arg "Bw_shard.Part.make_int: shard count < 1";
    try U.make_int ?lo ?hi n
    with Invalid_argument _ ->
      invalid_arg "Bw_shard.Part.make_int: hi must be > lo"

  let count = U.count
  let uniform (t : t) : U.t = t
  let shard_of_binary t s = U.of_slice t (Slice.of_binary s)
  let shard_of_int t k = U.of_slice t (Slice.of_int k)
  let floor_binary t i = if i <= 0 then "" else Slice.floor_binary (U.floor_slice t i)
  let floor_int t i = if i <= 0 then min_int else Slice.floor_int (U.floor_slice t i)
end

let route ?name ~(shard_of : 'k -> int) ~(floor_of : int -> 'k)
    (shards : 'k driver array) : 'k driver =
  let n_shards = Array.length shards in
  if n_shards = 0 then invalid_arg "Bw_shard.route: empty forest";
  let name =
    match name with
    | Some nm -> nm
    | None -> Printf.sprintf "%s[%d shards]" shards.(0).name n_shards
  in
  let pick k = shards.(shard_of k) in
  let each f = Array.iter f shards in
  {
    name;
    insert = (fun ~tid k v -> (pick k).insert ~tid k v);
    read = (fun ~tid k -> (pick k).read ~tid k);
    update = (fun ~tid k v -> (pick k).update ~tid k v);
    remove = (fun ~tid k -> (pick k).remove ~tid k);
    scan =
      (fun ~tid k ~n visit ->
        if n <= 0 then 0
        else begin
          (* shards partition the key space in key order: finish the
             start key's shard, then continue from each successor's
             floor until the budget is met or the forest is exhausted *)
          let got = ref 0 in
          let s = ref (shard_of k) in
          let start = ref k in
          while !got < n && !s < n_shards do
            got := !got + shards.(!s).scan ~tid !start ~n:(n - !got) visit;
            incr s;
            if !s < n_shards then start := floor_of !s
          done;
          !got
        end);
    batch =
      Some
        (fun ~tid ops ->
          let n_ops = Array.length ops in
          if n_shards = 1 then exec_batch shards.(0) ~tid ops
          else begin
            (* one routing pass records each op's shard and per-shard
               position, then the gathered sub-batches execute through
               each shard's own batch path (or per-op fallback) and the
               results scatter back to submission order — within one
               shard the sub-batch keeps submission order, so per-key
               semantics match the unsharded tree. Sub-batches and the
               scatter array are batch-sized, so they are built through
               [Bw_util.Arr] (stdlib constructors force a minor
               collection per >256-element array seeded with a young
               block). *)
            let shard = Array.make n_ops 0 in
            let count = Array.make n_shards 0 in
            for i = 0 to n_ops - 1 do
              let s = shard_of (batch_op_key ops.(i)) in
              shard.(i) <- s;
              count.(s) <- count.(s) + 1
            done;
            let subs =
              Array.init n_shards (fun s ->
                  if count.(s) = 0 then [||]
                  else Bw_util.Arr.make count.(s) ops.(0))
            in
            let pos = Array.make n_ops 0 in
            let fill = Array.make n_shards 0 in
            for i = 0 to n_ops - 1 do
              let s = shard.(i) in
              subs.(s).(fill.(s)) <- ops.(i);
              pos.(i) <- fill.(s);
              fill.(s) <- fill.(s) + 1
            done;
            let sub_results =
              Array.mapi
                (fun s sub ->
                  if Array.length sub = 0 then [||]
                  else exec_batch shards.(s) ~tid sub)
                subs
            in
            Bw_util.Arr.init n_ops (fun i ->
                sub_results.(shard.(i)).(pos.(i)))
          end);
    start_aux = (fun () -> each (fun d -> d.start_aux ()));
    stop_aux = (fun () -> each (fun d -> d.stop_aux ()));
    thread_done = (fun ~tid -> each (fun d -> d.thread_done ~tid));
    memory_words =
      (fun () ->
        Array.fold_left (fun acc d -> acc + d.memory_words ()) 0 shards);
  }

let check_arity part shards =
  if Part.count part <> Array.length shards then
    invalid_arg
      (Printf.sprintf "Bw_shard.route: partition has %d shards, got %d drivers"
         (Part.count part) (Array.length shards))

let route_int ?name part shards =
  check_arity part shards;
  route ?name ~shard_of:(Part.shard_of_int part)
    ~floor_of:(Part.floor_int part) shards
