(** Concrete driver instances: the six indexes of §6 (plus configuration
    variants of the Bw-Tree), written once over a key witness and
    instantiated for integer and string (email) keys. *)

open Index_iface

(** A key witness: everything that differs between integer and string
    keys, so every driver, store, forest and CLI path is written once. *)
module type KEY = sig
  type t

  val name : string
  (** The [--key-type] spelling; also the replication stream's key tag. *)

  module Key : Bwtree.KEY with type t = t
  module Codec : Pagestore.Codec.CODEC with type t = t

  val part : ?lo:t -> ?hi:t -> int -> Bw_shard.Part.t
  val shard_of : Bw_shard.Part.t -> t -> int
  val floor_of : Bw_shard.Part.t -> int -> t

  val live_lo : t option
  (** Where served forests, followers and the cluster bootstrap start
      their partition, so their shard boundaries line up: the
      non-negative ints (negative keys still route, to shard 0), or the
      whole slice space for strings. *)

  val workload_range : t option * t option
  (** Partition bounds for the YCSB key spaces: every int space
      generates non-negative keys; email keys start with a lowercase
      name, so they partition ["a", "z"). *)

  val of_workload : Workload.key_space -> int -> t

  val backend : t driver -> backend
  (** The binary-keyed serving view, through the key's wire encoding. *)
end

let hd_opt = function [] -> None | v :: _ -> Some v

(* A durable driver plus its lifecycle: [dur_checkpoint] cuts a new
   generation (call it quiesced — drained server, phase barrier; [mode]
   selects full rotation vs an in-place incremental manifest),
   [dur_close] fsyncs and releases the WAL without checkpointing (a
   clean close still recovers through WAL replay), [dur_stats] reports
   what boot-time recovery found. [dur_sources] exposes one replication
   source per shard (index = shard number; a single store is one-shard)
   for the WAL shipper. *)
type 'k durable = {
  dur_driver : 'k Runner.driver;
  dur_checkpoint : ?tid:int -> ?mode:[ `Full | `Incremental ] -> unit -> unit;
  dur_close : unit -> unit;
  dur_stats : Pagestore.Store.recovery_stats;
  dur_sources : Pagestore.Store.repl_source array;
}

(* The CLI index names. [bw] is the paper's baseline Bw-Tree, [openbw]
   the OpenBw-Tree; only these two have a durable store. *)
let index_names =
  [ "bw"; "openbw"; "skiplist"; "skiplist-inline"; "masstree"; "btree"; "art" ]

let is_bwtree index = index = "bw" || index = "openbw"

(* The Bw-Tree config for an index name: the baseline for [bw], the
   OpenBw-Tree default otherwise, with [leaf_cache] (the CLIs'
   --leaf-cache) overriding the config's own setting when given. *)
let config_of_index ?leaf_cache index =
  let base =
    if index = "bw" then Bwtree.microsoft_config else Bwtree.default_config
  in
  match leaf_cache with
  | None -> base
  | Some on -> { base with Bwtree.leaf_cache = on }

module Make (K : KEY) = struct
  type key = K.t

  module K = K
  module Bw = Bwtree.Make (K.Key) (Int_value)
  module Durable = Pagestore.Store.Make (K.Codec) (Bw)
  module Bt = Btree_olc.Make (K.Key) (Int_value)
  module Sl = Skiplist.Make (K.Key) (Int_value)
  module Ar = Art_olc.Make (K.Key) (Int_value)
  module Mt = Masstree.Make (K.Key) (Int_value)

  (* --- Bw-Tree drivers (OpenBw, baseline Bw, and arbitrary configs) --- *)

  (* Driver batch ops in tree terms, mirroring the per-op closures below
     (remove deletes with value 0, read reports the newest value). The
     conversion arrays are batch-sized, so they go through [Bw_util.Arr]
     to avoid a forced minor collection per batch. *)
  let batch tree ~tid ops =
    let bops =
      Bw_util.Arr.map
        (function
          | Bop_insert (k, v) -> (k, Bw.B_insert v)
          | Bop_update (k, v) -> (k, Bw.B_update v)
          | Bop_upsert (k, v) -> (k, Bw.B_upsert v)
          | Bop_remove k -> (k, Bw.B_delete 0)
          | Bop_read k -> (k, Bw.B_get))
        ops
    in
    Bw_util.Arr.map
      (function
        | Bw.R_applied b -> Bres_applied b
        | Bw.R_values vs -> Bres_value (hd_opt vs))
      (Bw.execute_batch tree ~tid bops)

  (* The driver view of an existing tree instance — the common core of
     [bwtree] and the durable (recovered-tree) constructors below. *)
  let driver_of_tree ?(name = "OpenBw-Tree") tree : key Runner.driver =
    {
      Runner.name;
      insert = (fun ~tid k v -> Bw.insert tree ~tid k v);
      read = (fun ~tid k -> hd_opt (Bw.lookup tree ~tid k));
      update = (fun ~tid k v -> Bw.update tree ~tid k v);
      remove = (fun ~tid k -> Bw.delete tree ~tid k 0);
      scan = (fun ~tid k ~n visit -> Bw.scan_iter tree ~tid ~n k visit);
      batch = Some (batch tree);
      start_aux = (fun () -> Bw.start_gc_thread tree ());
      stop_aux = (fun () -> Bw.stop_gc_thread tree);
      thread_done = (fun ~tid -> Bw.quiesce tree ~tid);
      memory_words = (fun () -> Bw.memory_words tree);
    }

  let bwtree ?name ?config ?obs () =
    driver_of_tree ?name (Bw.create ?config ?obs ())

  (* --- lock-based / lock-free comparators --- *)

  (* The comparators share one point-op and scan shape; only the name and
     the auxiliary thread (the skip list's tower builder) differ. *)
  module type POINT = sig
    type t

    val insert : t -> tid:int -> key -> int -> bool
    val lookup : t -> tid:int -> key -> int option
    val update : t -> tid:int -> key -> int -> bool
    val delete : t -> tid:int -> key -> bool
    val scan : t -> tid:int -> key -> n:int -> (key -> int -> unit) -> int
    val memory_words : t -> int
  end

  let point (type t) (module X : POINT with type t = t) ?(start_aux = ignore)
      ?(stop_aux = ignore) name (t : t) : key Runner.driver =
    {
      Runner.name;
      insert = (fun ~tid k v -> X.insert t ~tid k v);
      read = (fun ~tid k -> X.lookup t ~tid k);
      update = (fun ~tid k v -> X.update t ~tid k v);
      remove = (fun ~tid k -> X.delete t ~tid k);
      scan = (fun ~tid k ~n visit -> X.scan t ~tid k ~n visit);
      batch = None;
      start_aux;
      stop_aux;
      thread_done = (fun ~tid -> ignore tid);
      memory_words = (fun () -> X.memory_words t);
    }

  let btree () = point (module Bt) "B+Tree" (Bt.create ())
  let art () = point (module Ar) "ART" (Ar.create ())
  let masstree () = point (module Mt) "Masstree" (Mt.create ())

  let skiplist ?(policy = Skiplist.Background) () =
    let t = Sl.create ~policy () in
    point (module Sl)
      ~start_aux:(fun () -> Sl.start_aux t)
      ~stop_aux:(fun () -> Sl.stop_aux t)
      (match policy with
      | Skiplist.Background -> "SkipList"
      | Skiplist.Inline -> "SkipList-inline")
      t

  (* The driver behind an {!index_names} entry. The Bw-Tree drivers take
     the sink directly (the tree instruments its own operations, adding
     restart and chain-depth series); the comparators are wrapped so only
     operation latency is recorded. *)
  let index ?(obs = Bw_obs.Null) ~config name : key Runner.driver =
    match name with
    | "bw" -> bwtree ~name:"Bw-Tree" ~config ~obs ()
    | "openbw" -> bwtree ~config ~obs ()
    | "skiplist" -> Runner.instrument obs (skiplist ())
    | "skiplist-inline" ->
        Runner.instrument obs (skiplist ~policy:Skiplist.Inline ())
    | "masstree" -> Runner.instrument obs (masstree ())
    | "btree" -> Runner.instrument obs (btree ())
    | "art" -> Runner.instrument obs (art ())
    | s -> invalid_arg ("Drivers.index: unknown index " ^ s)

  (* the six-index lineup used by §6 experiments *)
  let lineup () =
    List.map
      (fun (label, i) -> (label, fun () -> index ~config:(config_of_index i) i))
      [
        ("Bw-Tree", "bw"); ("OpenBw-Tree", "openbw"); ("SkipList", "skiplist");
        ("Masstree", "masstree"); ("B+Tree", "btree"); ("ART", "art");
      ]

  let backend = K.backend

  (* --- range-partitioned Bw-Tree forests (lib/shard router) --- *)

  let route ?name part drivers =
    Bw_shard.route ?name ~shard_of:(K.shard_of part)
      ~floor_of:(K.floor_of part) drivers

  (* [obs_of i] supplies shard [i]'s metrics sink, so a forest can feed
     per-shard registries (labeled shard<i>_* series in the merged
     snapshot) or one shared registry — striping is by tid either way. *)
  let forest ?name ?config ?(obs_of = fun _ -> Bw_obs.Null) ?lo ?hi ~shards
      () =
    let part = K.part ?lo ?hi shards in
    route ?name part
      (Array.init shards (fun i -> bwtree ?config ~obs:(obs_of i) ()))

  (* --- durable Bw-Trees: pagestore-backed recovery + group-commit WAL --- *)

  let wrapped ?name (st, _) =
    Durable.wrap_driver st (driver_of_tree ?name (Durable.tree st))

  (* The lifecycle of [stores] (one per shard) behind [dur_driver]. *)
  let lifecycle stores dur_driver =
    let each f = Array.iter (fun (st, _) -> f st) stores in
    {
      dur_driver;
      dur_checkpoint =
        (fun ?tid ?mode () ->
          each (fun st ->
              ignore (Durable.checkpoint ?tid ?mode st : int * int)));
      dur_close = (fun () -> each Durable.close);
      dur_stats =
        Array.fold_left
          (fun acc (_, s) -> Pagestore.Store.merge_stats acc s)
          (snd stores.(0))
          (Array.sub stores 1 (Array.length stores - 1));
      dur_sources = Array.map (fun (st, _) -> Durable.repl_source st) stores;
    }

  let durable ?name ?config ?(obs = Bw_obs.Null) ?segment_bytes ?page_items
      ?(fsync = true) ?on_replay ~dir () : key durable =
    let store =
      Durable.open_dir ?config ~obs ?segment_bytes ?page_items ~fsync
        ?on_replay ~dir ()
    in
    lifecycle [| store |] (wrapped ?name store)

  (* Durable forest: shard [i] keeps its own generations and WAL under
     [dir/shard-<i>], so group commits never serialize across shards and
     a crash tears each shard's WAL independently (recovery is then
     per-(thread, shard) prefix-consistent). [on_replay] receives the
     shard index so a checker can attribute replayed ops. *)
  let durable_forest ?name ?config ?(obs_of = fun _ -> Bw_obs.Null) ?lo ?hi
      ?segment_bytes ?page_items ?(fsync = true) ?on_replay ~shards ~dir () :
      key durable =
    let part = K.part ?lo ?hi shards in
    let stores =
      Array.init shards (fun i ->
          Durable.open_dir ?config ~obs:(obs_of i) ?segment_bytes ?page_items
            ~fsync
            ?on_replay:(Option.map (fun f -> f i) on_replay)
            ~dir:(Filename.concat dir (Printf.sprintf "shard-%02d" i))
            ())
    in
    lifecycle stores (route ?name part (Array.map (fun s -> wrapped s) stores))
end

(** What callers that pick the key type at run time see of a {!Make}
    instance. *)
module type S = sig
  type key

  module K : KEY with type t = key
  module Bw : Bwtree.S with type key = key and type value = int
  module Durable : module type of Pagestore.Store.Make (K.Codec) (Bw)

  val bwtree :
    ?name:string -> ?config:Bwtree.config -> ?obs:Bw_obs.sink -> unit ->
    key Runner.driver

  val index :
    ?obs:Bw_obs.sink -> config:Bwtree.config -> string -> key Runner.driver

  val lineup : unit -> (string * (unit -> key Runner.driver)) list
  val backend : key Runner.driver -> backend

  val route :
    ?name:string -> Bw_shard.Part.t -> key Runner.driver array ->
    key Runner.driver

  val forest :
    ?name:string -> ?config:Bwtree.config -> ?obs_of:(int -> Bw_obs.sink) ->
    ?lo:key -> ?hi:key -> shards:int -> unit -> key Runner.driver

  val durable :
    ?name:string -> ?config:Bwtree.config -> ?obs:Bw_obs.sink ->
    ?segment_bytes:int -> ?page_items:int -> ?fsync:bool ->
    ?on_replay:(Durable.W.op -> unit) -> dir:string -> unit -> key durable

  val durable_forest :
    ?name:string -> ?config:Bwtree.config -> ?obs_of:(int -> Bw_obs.sink) ->
    ?lo:key -> ?hi:key -> ?segment_bytes:int -> ?page_items:int ->
    ?fsync:bool -> ?on_replay:(int -> Durable.W.op -> unit) -> shards:int ->
    dir:string -> unit -> key durable
end

module Int = Make (struct
  type t = int

  let name = "int"

  module Key = Int_key
  module Codec = Pagestore.Codec.Int

  let part = Bw_shard.Part.make_int
  let shard_of = Bw_shard.Part.shard_of_int
  let floor_of = Bw_shard.Part.floor_int
  let live_lo = Some 0
  let workload_range = (Some 0, None)
  let of_workload = Workload.int_key_of
  let backend = backend_of_int_driver
end)

module Str = Make (struct
  type t = string

  let name = "str"

  module Key = String_key
  module Codec = Pagestore.Codec.String

  let part = Bw_shard.Part.make
  let shard_of = Bw_shard.Part.shard_of_binary
  let floor_of = Bw_shard.Part.floor_binary
  let live_lo = None
  let workload_range = (Some "a", Some "z")
  let of_workload _ = Workload.email_key_of
  let backend d = backend_of_driver ~decode_key:Fun.id ~encode_key:Fun.id d
end)

type 'k t = (module S with type key = 'k)

(** An instance whose key type is picked at run time. *)
type witness = Key : 'k t -> witness

let key_types = [ Key (module Int); Key (module Str) ]

let of_key_type s =
  List.find_opt (fun (Key (module D)) -> D.K.name = s) key_types

(* the email space is string-keyed; every other workload space is int *)
let of_space : Workload.key_space -> witness = function
  | Workload.Email -> Key (module Str)
  | _ -> Key (module Int)

(* The int instance under the names the perfbench harness uses. *)
module Bw_int = Int.Bw
module Durable_int = Int.Durable

let bw_int_driver_of_tree = Int.driver_of_tree
