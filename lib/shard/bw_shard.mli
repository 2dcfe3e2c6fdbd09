(** Range-partitioned shard router: a forest of N index instances behind
    one {!Index_iface.driver}.

    The paper (§6) shows the Bw-tree's centralized mapping table and
    root-level delta traffic cap its multi-core scalability; partitioning
    the binary-comparable key space ({!Bw_util.Key_codec}) over N smaller
    trees divides that contention while keeping scans ordered. The router
    itself satisfies the driver contract, so a forest drops in wherever a
    single tree did — harness, server, stress checker, benchmarks.

    Routing is O(1): the first 8-byte big-endian slice of a key selects
    the shard by unsigned division with a precomputed stride. Shard [i]
    owns slice values in [[i*stride, (i+1)*stride)], so shards partition
    the key space in key order and a cross-shard scan is a plain
    continuation: exhaust shard [i], restart at shard [i+1]'s floor key.
    Each per-shard scan has exactly-once visit semantics and the shard
    ranges are disjoint, so the concatenation is exactly-once too. *)

(** The partition: shard count plus the precomputed slice interval and
    stride. *)
module Part : sig
  type t

  val make : ?lo:string -> ?hi:string -> int -> t
  (** [make ?lo ?hi n] partitions the slice interval
      [[slice64 lo, slice64 hi)] into [n] equal ranges (default: the
      whole 64-bit slice space). Keys below [lo] route to shard 0 and
      keys at or past [hi] to shard [n-1], so the partition stays
      total and order-consistent over all keys. Pass [lo]/[hi] when
      the live keys occupy a known sub-range (e.g. lowercase email
      keys) — a full-space partition would then leave most shards
      empty. Raises [Invalid_argument] if [n < 1] or [hi <= lo]. *)

  val make_int : ?lo:int -> ?hi:int -> int -> t
  (** [make_int ?lo ?hi n] partitions the inclusive int key range
      [[lo, hi]] (default [[min_int, max_int]] — the middle half of
      the full slice space, since OCaml ints are 63-bit) so [n] shards
      of an int-keyed forest each own an equal share. As with {!make},
      keys outside the range route to the first/last shard, keeping
      the partition total. Pass bounds when the live keys occupy a
      known sub-range (benchmarks use non-negative keys). Use this
      (not {!make}) for {!route_int} forests. Raises
      [Invalid_argument] if [n < 1] or [hi <= lo]. *)

  val count : t -> int

  val uniform : t -> Bw_cluster.Uniform.t
  (** The underlying uniform slice partition — what
      {!Bw_cluster.Table.of_uniform} turns into a cluster bootstrap
      table, so a fleet and an in-process forest split keys at the same
      boundaries. *)

  val shard_of_binary : t -> string -> int
  (** Shard owning a binary-comparable key: its first 8-byte slice
      (zero-padded past the end) divided by the stride. Always in
      [[0, count)]. *)

  val shard_of_int : t -> int -> int
  (** Same partition point as [shard_of_binary (Key_codec.of_int k)],
      computed arithmetically — no encoding allocation on point ops. *)

  val floor_binary : t -> int -> string
  (** The smallest binary key owned by shard [i] (trailing zero bytes
      stripped, so short string keys above the boundary still compare
      >= it); [""] for shard 0. Scan continuation restarts here. *)

  val floor_int : t -> int -> int
  (** The smallest int key owned by shard [i], clamped to the int range:
      a boundary below every int key yields [min_int], one above every
      int key yields [max_int] (such a shard holds no int keys, so
      scanning it from anywhere visits nothing). *)
end

val route :
  ?name:string ->
  shard_of:('k -> int) ->
  floor_of:(int -> 'k) ->
  'k Index_iface.driver array ->
  'k Index_iface.driver
(** [route ~shard_of ~floor_of shards] is the forest driver. Point ops
    go to [shards.(shard_of k)]; [scan] walks successor shards from
    [floor_of] until the budget is met; [start_aux]/[stop_aux]/
    [thread_done] fan out to every shard and [memory_words] sums them.
    [name] defaults to ["<shard0-name>[N shards]"]. *)

val route_int :
  ?name:string -> Part.t -> int Index_iface.driver array -> int Index_iface.driver
(** [route] specialized to int keys via [Part]. Raises
    [Invalid_argument] if the array length differs from [Part.count]. *)
