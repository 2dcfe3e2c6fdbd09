(** Packed leaf pages: the one leaf-materialization representation.

    A page is a sorted immutable run of (key, value) items. Alongside the
    decoded key/value slots it (optionally) carries a *packed* search
    structure: every key's binary-comparable encoding ({!KEY.to_binary},
    the same slices {!Bw_util.Key_codec} gives the trie indexes) laid out
    contiguously in one byte arena. The arena is the serialization format
    (checkpoints blit it); searches run over the decoded key cache. The
    arena ends in a small *gap* region so a consolidation
    can often reuse its predecessor's arena — surviving keys keep their
    byte slices, only the delta chain's new keys are appended into the gap
    (claimed by an atomic bump so racing consolidators of the same logical
    node never overlap), and the page is published by the mapping table's
    CAS as usual.

    Values stay ordinary OCaml slots: the tree's {!VALUE} contract has no
    serialization, and the paper's workloads use values as opaque tuple
    pointers anyway. The packed region is exactly the key side — which is
    also what the checkpoint wants on disk, so {!encode} emits it by blit,
    with no per-key re-encoding.

    Pages are built with {!Bw_util.Arr}'s immediate-seeded constructors:
    merge-absorbed leaves exceed 256 slots, where a young-seeded stdlib
    array constructor would force a minor collection per page build. *)

module Counters = Bw_util.Counters
module Arr = Bw_util.Arr
module Growable = Bw_util.Growable
module Key_codec = Bw_util.Key_codec

module type KEY = sig
  type t

  val compare : t -> t -> int
  val to_binary : t -> string
  val of_binary : string -> t
end

module type VALUE = sig
  type t

  val equal : t -> t -> bool
end

(** The read/serialize surface re-exported as [Bwtree.S.Page]: everything
    a consumer outside the tree core (checkpointing, inspection, tests)
    needs. Construction and merging stay internal to the core. *)
module type S = sig
  type key
  type value

  type t
  (** An immutable sorted run of items. Cheap to share: iterators and
      checkpoints hand out the tree's own pages without copying. *)

  val length : t -> int

  val is_packed : t -> bool
  (** Whether the page carries the packed binary-key search structure
      (config [packed_leaves]; decoded pages are always packed). *)

  val key : t -> int -> key
  val value : t -> int -> value
  val get : t -> int -> key * value

  val lower_bound : ?tid:int -> t -> key -> int
  (** First index whose key is [>=] the argument, searched over the
      decoded key cache. *)

  val iter_from : t -> int -> (key -> value -> unit) -> unit
  (** [iter_from t pos f] visits items [pos..length-1] in key order. *)

  val slice : t -> (key * value) array
  (** The items as a fresh array (the one leaf-materialization path). *)

  val key_bytes : t -> string
  (** The binary-comparable key region, slices in index order. Packed
      pages blit it; boxed pages encode on demand. *)

  val search_cost : t -> int
  (** Comparisons one {!lower_bound} over the whole page performs —
      deterministic for the branchless packed search ([floor(log2 n)+1],
      the bound the [leaf_probe_cmps] counter charges). *)

  val encode : Buffer.t -> (Buffer.t -> value -> unit) -> t -> unit
  (** Serialize: item count, key-length table, the key region (packed
      pages: verbatim blit), then each value through the caller's
      encoder. [decode] of the result re-[encode]s byte-identically. *)

  val decode : string -> pos:int ref -> value:(unit -> value) -> t
  (** Inverse of {!encode}; [value] is called once per item, in index
      order, to read each value (advancing the caller's cursor). The
      result is packed, with a zero-byte gap. Raises [Failure] on a
      malformed payload. *)
end

(** Internal construction/merge surface used by the tree core. *)
module type FULL = sig
  include S

  val empty : t

  val build : ?packed:bool -> (key * value) array -> t
  (** From a key-sorted item array. [packed] (default [true]) selects
      whether to build the binary-key search structure; [false] gives a
      boxed page (decoded keys only) — the ablation baseline and the
      cheap choice for transient snapshots. *)

  val build_sub : ?packed:bool -> (key * value) array -> pos:int -> len:int -> t

  val lower_bound_in : ?tid:int -> t -> key -> lo:int -> hi:int -> int
  (** {!lower_bound} restricted to [\[lo, hi)] — the §4.4 shortcut range. *)

  val with_inserted : t -> int -> key -> value -> t
  (** Copy-on-write single insert at a given position (the §6.3
      in-place-update ablation). *)

  type delta =
    | Ins of key * value
    | Del of key * value
    | Upd of key * value * value  (* key, old value, new value *)

  type merged = { m_page : t; m_gap_reused : bool }

  val merge_with_deltas :
    ?tid:int -> ?packed:bool -> ?reuse:bool -> t -> delta list -> merged
  (** Apply a data-delta chain (newest first) to a base page with the
      multiset pending-delete semantics of §3.1 and a single two-way
      merge — no full sort; only the chain's items get sorted
      (chain-bounded, insertion sort). [packed] defaults to the base's
      packedness. With [reuse] (default [true]) a packed result tries to
      share the base's arena, claiming gap space only for keys the base
      does not already hold; [m_gap_reused] reports success. [~reuse:
      false] builds a fresh arena (still blitting surviving slices, no
      re-encode) — for side-effect-free snapshots like checkpoints. *)

  val search_cost_n : int -> int
  (** {!search_cost} for an [n]-item range. *)

  val gap_bytes : t -> int
  (** Unclaimed arena bytes remaining (0 for boxed pages). *)

  val keys : t -> key array
  (** The decoded key cache, exactly [length t] slots. Read-only view
      for the probe hot path, where a hoisted array beats per-slot
      {!key} calls (non-inlined across the functor boundary). *)

  val values : t -> value array
  (** The value array, exactly [length t] slots; read-only. *)
end

module Make (K : KEY) (V : VALUE) :
  FULL with type key = K.t and type value = V.t = struct
  type key = K.t
  type value = V.t

  (* The shared key-byte arena. [cursor] is an atomic bump allocator over
     the tail gap: sibling generations of one logical page share an
     arena, and racing consolidators claim disjoint ranges (the loser's
     bytes are wasted — its mapping-table CAS fails). Once the cursor
     overflows the arena it stays overflowed, so later claims keep
     failing and fall back to fresh arenas. *)
  type arena = { bb : Bytes.t; cursor : int Atomic.t }

  let empty_arena = { bb = Bytes.empty; cursor = Atomic.make 0 }

  type t = {
    n : int;
    kcache : key array;  (* decoded keys, length n *)
    vals : value array;  (* length n *)
    pk : bool;  (* packed search structure present *)
    arena : arena;  (* shared across generations when [pk] *)
    kpos : int array;  (* byte offset of key i's slice, when [pk] *)
    klen : int array;  (* slice length of key i, when [pk] *)
    fixed8 : bool;  (* every slice is exactly 8 bytes (int keys) *)
  }

  let empty =
    {
      n = 0;
      kcache = [||];
      vals = [||];
      pk = false;
      arena = empty_arena;
      kpos = [||];
      klen = [||];
      fixed8 = false;
    }

  let length t = t.n
  let is_packed t = t.pk
  let key t i = t.kcache.(i)
  let value t i = t.vals.(i)
  let get t i = (t.kcache.(i), t.vals.(i))
  let keys t = t.kcache
  let values t = t.vals

  let cnt_n tid ev n =
    if !Counters.enabled then Counters.add Counters.global ~tid ev n

  let search_cost_n n =
    if n <= 0 then 0
    else begin
      let c = ref 0 and len = ref n in
      while !len > 0 do
        incr c;
        len := !len lsr 1
      done;
      !c
    end

  let search_cost t = search_cost_n t.n

  (* ---------------------------------------------------------------- *)
  (* Search                                                            *)
  (* ---------------------------------------------------------------- *)

  let lower_bound_boxed t k ~lo ~hi =
    let lo = ref lo and hi = ref hi in
    let kcache = t.kcache in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if K.compare (Array.unsafe_get kcache mid) k < 0 then lo := mid + 1
      else hi := mid
    done;
    !lo

  (* The classic branchy search over the decoded cache: for word-sized
     keys the cache is a flat unboxed array (no per-probe [to_binary]
     encode), for strings [K.compare] bottoms out in the memcmp stub,
     and on skewed read workloads the predictor learns hot descent
     paths. An n-slot search does at most [search_cost_n n] comparisons,
     which is what [search_cost] reports and the [leaf_probe_cmps]
     counter charges. *)
  let lower_bound_in ?(tid = 0) t k ~lo ~hi =
    if hi <= lo then lo
    else begin
      if !Counters.enabled then
        cnt_n tid Counters.Key_compare (search_cost_n (hi - lo));
      lower_bound_boxed t k ~lo ~hi
    end

  let lower_bound ?(tid = 0) t k = lower_bound_in ~tid t k ~lo:0 ~hi:t.n

  (* ---------------------------------------------------------------- *)
  (* Iteration / materialization                                       *)
  (* ---------------------------------------------------------------- *)

  let iter_from t pos f =
    for i = max 0 pos to t.n - 1 do
      f (Array.unsafe_get t.kcache i) (Array.unsafe_get t.vals i)
    done

  let slice t = Arr.init t.n (fun i -> (t.kcache.(i), t.vals.(i)))

  let key_bytes t =
    if t.pk then begin
      let total = Array.fold_left ( + ) 0 t.klen in
      let out = Bytes.create total in
      let off = ref 0 in
      for i = 0 to t.n - 1 do
        Bytes.blit t.arena.bb t.kpos.(i) out !off t.klen.(i);
        off := !off + t.klen.(i)
      done;
      Bytes.unsafe_to_string out
    end
    else String.concat "" (List.init t.n (fun i -> K.to_binary t.kcache.(i)))

  let gap_bytes t =
    if not t.pk then 0
    else max 0 (Bytes.length t.arena.bb - Atomic.get t.arena.cursor)

  (* ---------------------------------------------------------------- *)
  (* Construction                                                      *)
  (* ---------------------------------------------------------------- *)

  (* Gap policy: a quarter of the key bytes, clamped to [64, 1024] —
     room for roughly a delta chain's worth of new keys before a
     consolidation must fall back to a fresh arena. *)
  let gap_for total = min 1024 (max 64 (total asr 2))

  let pack_keys kcache n =
    let bins = Arr.init n (fun i -> K.to_binary (Array.unsafe_get kcache i)) in
    let total = Array.fold_left (fun a s -> a + String.length s) 0 bins in
    let bb = Bytes.create (total + gap_for total) in
    let kpos = Array.make n 0 and klen = Array.make n 0 in
    let off = ref 0 in
    let fixed8 = ref true in
    for i = 0 to n - 1 do
      let s = Array.unsafe_get bins i in
      let l = String.length s in
      Bytes.blit_string s 0 bb !off l;
      kpos.(i) <- !off;
      klen.(i) <- l;
      if l <> 8 then fixed8 := false;
      off := !off + l
    done;
    ({ bb; cursor = Atomic.make total }, kpos, klen, !fixed8)

  let build_sub ?(packed = true) items ~pos ~len =
    if len = 0 then empty
    else begin
      let kcache =
        Arr.init len (fun i -> fst (Array.unsafe_get items (pos + i)))
      in
      let vals =
        Arr.init len (fun i -> snd (Array.unsafe_get items (pos + i)))
      in
      if not packed then
        {
          n = len;
          kcache;
          vals;
          pk = false;
          arena = empty_arena;
          kpos = [||];
          klen = [||];
          fixed8 = false;
        }
      else begin
        let arena, kpos, klen, fixed8 = pack_keys kcache len in
        { n = len; kcache; vals; pk = true; arena; kpos; klen; fixed8 }
      end
    end

  let build ?packed items =
    build_sub ?packed items ~pos:0 ~len:(Array.length items)

  let with_inserted t pos k v =
    let n = t.n in
    let kcache = Arr.alloc (n + 1) and vals = Arr.alloc (n + 1) in
    Array.blit t.kcache 0 kcache 0 pos;
    Array.blit t.vals 0 vals 0 pos;
    kcache.(pos) <- k;
    vals.(pos) <- v;
    Array.blit t.kcache pos kcache (pos + 1) (n - pos);
    Array.blit t.vals pos vals (pos + 1) (n - pos);
    if not t.pk then
      {
        n = n + 1;
        kcache;
        vals;
        pk = false;
        arena = empty_arena;
        kpos = [||];
        klen = [||];
        fixed8 = false;
      }
    else begin
      let arena, kpos, klen, fixed8 = pack_keys kcache (n + 1) in
      { n = n + 1; kcache; vals; pk = true; arena; kpos; klen; fixed8 }
    end

  (* ---------------------------------------------------------------- *)
  (* Consolidation merge                                               *)
  (* ---------------------------------------------------------------- *)

  type delta =
    | Ins of key * value
    | Del of key * value
    | Upd of key * value * value

  type merged = { m_page : t; m_gap_reused : bool }

  (* Claim [nbytes] of [ar]'s gap; [Some offset] when it fits. *)
  let claim ar nbytes =
    if nbytes = 0 then Some 0
    else begin
      let off = Atomic.fetch_and_add ar.cursor nbytes in
      if off + nbytes <= Bytes.length ar.bb then Some off else None
    end

  let all8 klen n =
    let ok = ref (n > 0) in
    for i = 0 to n - 1 do
      if Array.unsafe_get klen i <> 8 then ok := false
    done;
    !ok

  let merge_with_deltas ?(tid = 0) ?packed ?(reuse = true) base deltas =
    let packed = match packed with Some p -> p | None -> base.pk in
    (* 1. newest-to-oldest walk with multiset pending-delete semantics: a
       delete is *pending* and is consumed by the next-older insert of
       the same pair, or failing that by a base occurrence (§3.1 — the
       multiset variant, because an update whose old and new values are
       equal makes pairs repeat across chain and base). *)
    let pres : (key * value) Growable.t = Growable.create () in
    let dels : (key * value) Growable.t = Growable.create () in
    let take_pending k v =
      let nd = Growable.length dels in
      let rec go i =
        if i >= nd then false
        else
          let k', v' = Growable.get dels i in
          if K.compare k' k = 0 && V.equal v' v then begin
            Growable.remove_at dels i;
            true
          end
          else go (i + 1)
      in
      go 0
    in
    List.iter
      (fun d ->
        match d with
        | Ins (k, v) -> if not (take_pending k v) then Growable.push pres (k, v)
        | Del (k, v) -> Growable.push dels (k, v)
        | Upd (k, vold, vnew) ->
            if not (take_pending k vnew) then Growable.push pres (k, vnew);
            Growable.push dels (k, vold))
      deltas;
    let nb = base.n in
    (* 2. resolve surviving deletes against base occurrences; deletes
       that resolve nowhere refer to delta-only items already absorbed
       by the pending set above and are ignored *)
    let consumed = Array.make (max 1 nb) false in
    let n_dead = ref 0 in
    Growable.iter
      (fun (k, v) ->
        let i = ref (lower_bound_in ~tid base k ~lo:0 ~hi:nb) in
        let stop = ref false in
        while
          (not !stop) && !i < nb && K.compare base.kcache.(!i) k = 0
        do
          if (not consumed.(!i)) && V.equal base.vals.(!i) v then begin
            consumed.(!i) <- true;
            incr n_dead;
            stop := true
          end
          else incr i
        done)
      dels;
    (* 3. the chain's surviving items, key-sorted; stable insertion sort
       (chain-bounded input) keeps newest-first order within a key *)
    let pa = Growable.to_array pres in
    let np = Array.length pa in
    for i = 1 to np - 1 do
      let x = pa.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && K.compare (fst pa.(!j)) (fst x) > 0 do
        pa.(!j + 1) <- pa.(!j);
        decr j
      done;
      pa.(!j + 1) <- x
    done;
    let nout = nb - !n_dead + np in
    if nout = 0 then { m_page = empty; m_gap_reused = false }
    else begin
      (* 4. single two-way merge. Delta items are emitted before base
         items with an equal key (they are newer — matches the probe
         walk, which reports delta values ahead of base values). [src]
         records each output slot's provenance for the byte plan:
         [>= 0] a base index, [< 0] chain item [-src-1]. *)
      let okc = Arr.alloc nout and ov = Arr.alloc nout in
      let src = Array.make nout 0 in
      let oi = ref 0 and bi = ref 0 and pi = ref 0 in
      while !bi < nb || !pi < np do
        while !bi < nb && consumed.(!bi) do
          incr bi
        done;
        let take_delta =
          !pi < np
          && (!bi >= nb
             || K.compare (fst pa.(!pi)) base.kcache.(!bi) <= 0)
        in
        if take_delta then begin
          let k, v = pa.(!pi) in
          okc.(!oi) <- k;
          ov.(!oi) <- v;
          src.(!oi) <- - !pi - 1;
          incr oi;
          incr pi
        end
        else if !bi < nb then begin
          okc.(!oi) <- base.kcache.(!bi);
          ov.(!oi) <- base.vals.(!bi);
          src.(!oi) <- !bi;
          incr oi;
          incr bi
        end
      done;
      assert (!oi = nout);
      if not packed then
        {
          m_page =
            {
              n = nout;
              kcache = okc;
              vals = ov;
              pk = false;
              arena = empty_arena;
              kpos = [||];
              klen = [||];
              fixed8 = false;
            };
          m_gap_reused = false;
        }
      else begin
        (* 5. byte plan: each output slot either blits an existing base
           slice ([bsrc] >= 0 — survivors, and chain keys the base
           already holds, e.g. updates) or encodes fresh bytes ([bbin]).
           Only the fresh bytes need gap space. *)
        let bsrc = Array.make nout (-1) in
        let bbin = Array.make nout "" in
        let new_bytes = ref 0 in
        for i = 0 to nout - 1 do
          let s = src.(i) in
          if s >= 0 then begin
            if base.pk then bsrc.(i) <- s
            else bbin.(i) <- K.to_binary okc.(i)
          end
          else if base.pk then begin
            (* chain item: reuse the slice of any base occurrence of the
               same key, dead or alive — equal keys share bytes *)
            let p = lower_bound_boxed base okc.(i) ~lo:0 ~hi:nb in
            if p < nb && K.compare base.kcache.(p) okc.(i) = 0 then
              bsrc.(i) <- p
            else begin
              let b = K.to_binary okc.(i) in
              bbin.(i) <- b;
              new_bytes := !new_bytes + String.length b
            end
          end
          else bbin.(i) <- K.to_binary okc.(i)
        done;
        let finish ~arena ~kpos ~klen ~gap_reused =
          {
            m_page =
              {
                n = nout;
                kcache = okc;
                vals = ov;
                pk = true;
                arena;
                kpos;
                klen;
                fixed8 = all8 klen nout;
              };
            m_gap_reused = gap_reused;
          }
        in
        let gap_attempt =
          if reuse && base.pk then
            match claim base.arena !new_bytes with
            | None -> None
            | Some off0 ->
                let kpos = Array.make nout 0 and klen = Array.make nout 0 in
                let off = ref off0 in
                for i = 0 to nout - 1 do
                  if bsrc.(i) >= 0 then begin
                    kpos.(i) <- base.kpos.(bsrc.(i));
                    klen.(i) <- base.klen.(bsrc.(i))
                  end
                  else begin
                    let b = bbin.(i) in
                    let l = String.length b in
                    Bytes.blit_string b 0 base.arena.bb !off l;
                    kpos.(i) <- !off;
                    klen.(i) <- l;
                    off := !off + l
                  end
                done;
                Some (finish ~arena:base.arena ~kpos ~klen ~gap_reused:true)
          else None
        in
        match gap_attempt with
        | Some m -> m
        | None ->
            (* fresh arena: blit surviving slices, write fresh bytes —
               still no re-encoding of keys the base already carried *)
            let total = ref 0 in
            for i = 0 to nout - 1 do
              total :=
                !total
                + (if bsrc.(i) >= 0 then base.klen.(bsrc.(i))
                   else String.length bbin.(i))
            done;
            let bb = Bytes.create (!total + gap_for !total) in
            let kpos = Array.make nout 0 and klen = Array.make nout 0 in
            let off = ref 0 in
            for i = 0 to nout - 1 do
              let l =
                if bsrc.(i) >= 0 then begin
                  let s = bsrc.(i) in
                  let l = base.klen.(s) in
                  Bytes.blit base.arena.bb base.kpos.(s) bb !off l;
                  l
                end
                else begin
                  let b = bbin.(i) in
                  let l = String.length b in
                  Bytes.blit_string b 0 bb !off l;
                  l
                end
              in
              kpos.(i) <- !off;
              klen.(i) <- l;
              off := !off + l
            done;
            finish
              ~arena:{ bb; cursor = Atomic.make !total }
              ~kpos ~klen ~gap_reused:false
      end
    end

  (* ---------------------------------------------------------------- *)
  (* Serialization: the on-disk page format                            *)
  (* ---------------------------------------------------------------- *)

  (* [n : int64le] [flag : byte, 1 = all keys 8 bytes]
     [unless flag: n x len : int64le] [key slices, index order]
     [values, caller-encoded]. Integer fields match Pagestore.Codec's
     int64-LE convention. Packed pages blit their key region straight
     from the arena (index order, so gap-reused pages normalize and the
     decode/encode round trip is byte-identical). *)

  let add_i64 buf v = Buffer.add_int64_le buf (Int64.of_int v)

  let encode buf encode_value t =
    add_i64 buf t.n;
    if t.pk then begin
      Buffer.add_char buf (if t.fixed8 then '\001' else '\000');
      if not t.fixed8 then Array.iter (fun l -> add_i64 buf l) t.klen;
      for i = 0 to t.n - 1 do
        Buffer.add_subbytes buf t.arena.bb t.kpos.(i) t.klen.(i)
      done
    end
    else begin
      let bins = Arr.init t.n (fun i -> K.to_binary t.kcache.(i)) in
      let fixed8 =
        t.n > 0 && Array.for_all (fun s -> String.length s = 8) bins
      in
      Buffer.add_char buf (if fixed8 then '\001' else '\000');
      if not fixed8 then
        Array.iter (fun s -> add_i64 buf (String.length s)) bins;
      Array.iter (Buffer.add_string buf) bins
    end;
    for i = 0 to t.n - 1 do
      encode_value buf t.vals.(i)
    done

  let get_i64 s ~pos =
    if !pos + 8 > String.length s then failwith "Leaf_page.decode: truncated";
    let v = String.get_int64_le s !pos in
    pos := !pos + 8;
    Int64.to_int v

  let decode payload ~pos ~value =
    let plen = String.length payload in
    let n = get_i64 payload ~pos in
    if n < 0 || n > plen then failwith "Leaf_page.decode: bad item count";
    if !pos >= plen then failwith "Leaf_page.decode: truncated";
    let flag = payload.[!pos] in
    incr pos;
    let fixed8 =
      match flag with
      | '\001' -> true
      | '\000' -> false
      | _ -> failwith "Leaf_page.decode: bad flag"
    in
    if n = 0 then empty
    else begin
      let klen =
        if fixed8 then Array.make n 8
        else
          Array.init n (fun _ ->
              let l = get_i64 payload ~pos in
              if l < 0 || l > plen then
                failwith "Leaf_page.decode: bad key length";
              l)
      in
      let total = Array.fold_left ( + ) 0 klen in
      if !pos + total > plen then failwith "Leaf_page.decode: truncated";
      let bb = Bytes.create total in
      Bytes.blit_string payload !pos bb 0 total;
      pos := !pos + total;
      let kpos = Array.make n 0 in
      let off = ref 0 in
      for i = 0 to n - 1 do
        kpos.(i) <- !off;
        off := !off + klen.(i)
      done;
      let kcache =
        Arr.init n (fun i ->
            K.of_binary (Bytes.sub_string bb kpos.(i) klen.(i)))
      in
      let vals = Arr.init n (fun _ -> value ()) in
      {
        n;
        kcache;
        vals;
        pk = true;
        arena = { bb; cursor = Atomic.make total };
        kpos;
        klen;
        fixed8;
      }
    end
end
