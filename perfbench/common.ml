(* What every workload shares: its configuration, the record it returns,
   the settle-then-measure sequence and the per-layer readings of a tree
   and of a Bw_obs registry. *)

type cfg = {
  seed : int;
  seconds : float;
  scale : float;
      (* key and op counts are multiplied by this; 1.0 except in the
         self-test, which runs every workload small *)
  wrap : int Index_iface.driver -> int Index_iface.driver;
      (* identity except in the self-test, which injects faults *)
  dir : string;  (* scratch directory for durable stores and span files *)
}

(* The measured phase is cut into 1 s slices, and the end-to-end figures
   are medians over the full slices: a stall, or a second in which the
   shared host ran this VM slowly, moves one slice, not the figure. *)
let slice_ns = 1_000_000_000

module Slices = struct
  type t = {
    mutable base : int;  (* start of slice 0 *)
    full : int;  (* full slices; index [full] takes what runs past them *)
    cnt : int array;
    rd : Lat.t array;
    wr : Lat.t array;
    sc : Lat.t array;
  }

  let create ~seconds =
    let full = max 1 (int_of_float seconds) in
    let lats () = Array.init (full + 1) (fun _ -> Lat.create ()) in
    { base = 0; full; cnt = Array.make (full + 1) 0; rd = lats (); wr = lats (); sc = lats () }

  let slot t now =
    let i = (now - t.base) / slice_ns in
    if i < 0 then 0 else if i > t.full then t.full else i

  let merge = function
    | [] -> invalid_arg "Slices.merge"
    | t :: _ as ts ->
        let m = create ~seconds:(float_of_int t.full) in
        List.iter
          (fun s ->
            for i = 0 to t.full do
              m.cnt.(i) <- m.cnt.(i) + s.cnt.(i);
              Lat.merge_into ~dst:m.rd.(i) s.rd.(i);
              Lat.merge_into ~dst:m.wr.(i) s.wr.(i);
              Lat.merge_into ~dst:m.sc.(i) s.sc.(i)
            done)
          ts;
        m
end

(* Process CPU seconds at each slice boundary, sampled by whichever
   domain is not busy with operations. *)
module Cpu_marks = struct
  type t = float array

  let create (s : Slices.t) = Array.make (s.Slices.full + 1) Float.nan

  let sample (t : t) (s : Slices.t) now =
    let i = min s.Slices.full ((now - s.Slices.base) / slice_ns) in
    if i >= 0 && Float.is_nan t.(i) then begin
      let c = Lat.cpu_s () in
      for j = 0 to i do
        if Float.is_nan t.(j) then t.(j) <- c
      done
    end

  (* At the end of the phase: boundaries not reached yet get the CPU
     spent so far. *)
  let finish (t : t) =
    let c = Lat.cpu_s () in
    Array.iteri (fun j x -> if Float.is_nan x then t.(j) <- c) t
end

(* The host's speed. The benchmark runs on a VM whose shared host slows
   it by up to half for seconds to minutes at a time, every workload
   alike, which no median over one run's slices removes. So each slice
   also times a reference task, a fixed loop that runs none of the
   program's code: [lookups] binary searches of Zipfian-drawn keys in a
   sorted array of 1M ints (8 MB, outside the OCaml heap), every
   [every_ns] of the phase. Its duration over [ref_ns], the duration on
   the quiet host the benchmark was calibrated on, is the slice's slow-down
   factor, and each end-to-end figure is given at the reference speed:
   rates multiplied by the factor, times divided by it. The raw figures
   and the factors are printed above the result. *)
module Host = struct
  let n = 1 lsl 20
  let lookups = 8192
  let every_ns = 250_000_000
  let ref_ns = 2.5e6

  let keys =
    lazy
      (let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
       let x = ref 0 in
       for i = 0 to n - 1 do
         x := !x + 1 + (((i * 2654435761) lsr 7) land 63);
         a.{i} <- !x
       done;
       a)

  let stream =
    lazy
      (let keys = Lazy.force keys in
       let z = Bw_util.Zipf.create ~theta:0.99 ~n () in
       let rng = Bw_util.Rng.create ~seed:12345L in
       Array.init lookups (fun _ -> keys.{Bw_util.Zipf.sample_scrambled z rng}))

  (* The reference task's duration in ns. *)
  let run () =
    let keys = Lazy.force keys and stream = Lazy.force stream in
    let t0 = Lat.now_ns () in
    let acc = ref 0 in
    for j = 0 to lookups - 1 do
      let k = stream.(j) in
      let lo = ref 0 and hi = ref n in
      while !lo < !hi do
        let mid = (!lo + !hi) lsr 1 in
        if Bigarray.Array1.unsafe_get keys mid < k then lo := mid + 1 else hi := mid
      done;
      acc := !acc + !lo
    done;
    ignore (Sys.opaque_identity !acc);
    Lat.now_ns () - t0

  (* The factor now, from the median of three runs: for set-up times. *)
  let factor_now () =
    let a = Array.init 3 (fun _ -> run ()) in
    Array.sort compare a;
    float_of_int a.(1) /. ref_ns

  (* Per slice: total reference time and runs. *)
  type t = { spent : int array; runs : int array; mutable next : int }

  let create (s : Slices.t) =
    ignore (run ());
    { spent = Array.make (s.Slices.full + 1) 0; runs = Array.make (s.full + 1) 0; next = 0 }

  (* Called often by the domain that drives the phase. *)
  let sample t (s : Slices.t) now =
    if now >= t.next then begin
      let d = run () in
      t.next <- now + d + every_ns;
      let i = Slices.slot s now in
      t.spent.(i) <- t.spent.(i) + d;
      t.runs.(i) <- t.runs.(i) + 1
    end

  let factor t i =
    if t.runs.(i) = 0 then 1.0
    else float_of_int t.spent.(i) /. float_of_int t.runs.(i) /. ref_ns
end

type slice = {
  s_ops : int;
  s_cpu : float;
  s_read : Lat.t;
  s_all : Lat.t;
  s_busy : float;  (* seconds of the slice not spent on the reference task *)
  s_factor : float;  (* the host's slow-down factor in the slice *)
}

type phase = {
  ops : int;
  secs : float;
  cpu : float;
  read : Lat.t;
  write : Lat.t;
  scan : Lat.t;
  all : Lat.t;
  slices : slice array;  (* the full slices *)
  gc : Gc.stat * Gc.stat;  (* quick_stat before and after *)
}

(* A phase from its merged slices, the CPU marks and the totals. *)
let phase_of (s : Slices.t) marks host ~secs ~cpu ~gc =
  let all_of i = Lat.merge [ s.rd.(i); s.wr.(i); s.sc.(i) ] in
  let range = List.init (s.full + 1) Fun.id in
  let total a = Lat.merge (List.map (fun i -> a.(i)) range) in
  let read = total s.Slices.rd and write = total s.wr and scan = total s.sc in
  {
    ops = Array.fold_left ( + ) 0 s.cnt;
    secs;
    cpu;
    read;
    write;
    scan;
    all = Lat.merge [ read; write; scan ];
    slices =
      Array.init s.full (fun i ->
          {
            s_ops = s.cnt.(i);
            s_cpu = marks.(i + 1) -. marks.(i) -. (float_of_int host.Host.spent.(i) /. 1e9);
            s_read = s.rd.(i);
            s_all = all_of i;
            s_busy = (float_of_int (slice_ns - host.Host.spent.(i)) /. 1e9);
            s_factor = Host.factor host i;
          });
    gc;
  }

type outcome = {
  setups : (float * float) list;
      (* one per set-up made in the run: seconds, and the host's slow-down
         factor just before it *)
  phase : phase;
  attempted : int;
  failed : int;
  live_keys : int;
  mem_words : int;
  layers : (string * float) list;  (* traced run only *)
  trace_ok : bool;  (* the traced run's self-check passed *)
  env : (string * string) list;
}

let scaled cfg n = max 1 (int_of_float (float_of_int n *. cfg.scale))

(* The same settling on every workload, before its measured phase. *)
let settle () = Gc.compact ()

let time f =
  let t0 = Lat.now_ns () in
  let r = f () in
  (r, float_of_int (Lat.now_ns () - t0) /. 1e9)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let per n d = if d = 0 then 0. else float_of_int n /. float_of_int d
let perf x d = if d = 0 then 0. else x /. float_of_int d

(* ---- Bw_obs counters ------------------------------------------------- *)

let counter snap c =
  match List.assoc_opt c snap.Bw_obs.sn_counters with Some n -> n | None -> 0

let counter_delta s0 s1 c = counter s1 c - counter s0 c

let histo snap series =
  List.find_opt (fun h -> h.Bw_obs.hs_series = series) snap.Bw_obs.sn_histos

let gauge snap g =
  match List.assoc_opt g snap.Bw_obs.sn_gauges with Some n -> n | None -> 0

(* ---- Bw-tree readings ------------------------------------------------ *)

module Bw = Stack.Bw

type tree_mark = {
  op : Bwtree.op_stats;
  lc : Bwtree.leaf_cache_stats;
  snap : Bw_obs.snapshot option;
}

let sum_op (a : Bwtree.op_stats) (b : Bwtree.op_stats) =
  Bwtree.
    {
      inserts = a.inserts + b.inserts;
      deletes = a.deletes + b.deletes;
      updates = a.updates + b.updates;
      lookups = a.lookups + b.lookups;
      splits = a.splits + b.splits;
      merges = a.merges + b.merges;
      consolidations = a.consolidations + b.consolidations;
      failed_cas = a.failed_cas + b.failed_cas;
      restarts = a.restarts + b.restarts;
      smo_helps = a.smo_helps + b.smo_helps;
      prealloc_overflows = a.prealloc_overflows + b.prealloc_overflows;
    }

let sum_lc (a : Bwtree.leaf_cache_stats)
    (b : Bwtree.leaf_cache_stats) =
  Bwtree.
    {
      lc_hits = a.lc_hits + b.lc_hits;
      lc_misses = a.lc_misses + b.lc_misses;
      lc_stale_verifies = a.lc_stale_verifies + b.lc_stale_verifies;
      lc_invalidations = a.lc_invalidations + b.lc_invalidations;
      lc_smo_events = a.lc_smo_events + b.lc_smo_events;
      lc_occupied = a.lc_occupied + b.lc_occupied;
      lc_slots = a.lc_slots + b.lc_slots;
    }

let mark trees reg =
  let op = List.map Bw.op_stats trees and lc = List.map Bw.leaf_cache_stats trees in
  {
    op = List.fold_left sum_op (List.hd op) (List.tl op);
    lc = List.fold_left sum_lc (List.hd lc) (List.tl lc);
    snap = Option.map Bw_obs.snapshot reg;
  }

let span_p layer q = Lat.quantile (Span.self_of layer) q

(* The bwtree, epoch, mapping-table and GC rows, read over a measured
   phase of [ops] operations between marks [m0] and [m1]. *)
let tree_layers ~trees ~m0 ~m1 ~ops ~pending_max (p : phase) =
  let open Bwtree in
  let d f = f m1.op - f m0.op in
  let lc f = f m1.lc - f m0.lc in
  let lookups = lc (fun s -> s.lc_hits) + lc (fun s -> s.lc_misses) in
  let snap_delta c =
    match (m0.snap, m1.snap) with
    | Some s0, Some s1 -> counter_delta s0 s1 c
    | _ -> 0
  in
  let st = List.map Bw.structure_stats trees in
  let mt = List.map Bw.mapping_table_stats trees in
  let leaves = List.fold_left (fun a s -> a + s.leaf_nodes) 0 st in
  let chain =
    perf
      (List.fold_left
         (fun a s -> a +. (s.avg_leaf_chain *. float_of_int s.leaf_nodes))
         0. st)
      leaves
  in
  let consolidations = d (fun s -> s.consolidations) in
  let counters e = Bw_util.Counters.read Bw_util.Counters.global e in
  let g0, g1 = p.gc in
  let reclaim_p99 =
    match m1.snap with
    | Some s -> (
        match histo s Bw_obs.Lat_reclaim with
        | Some h -> float_of_int h.Bw_obs.hs_p99
        | None -> 0.)
    | None -> 0.
  in
  [
    ("bwtree.leaf_cache_hit_ratio", per (lc (fun s -> s.lc_hits)) lookups);
    ("bwtree.leaf_cache_stale_ratio", per (lc (fun s -> s.lc_stale_verifies)) lookups);
    ("bwtree.probe_cmps_per_op", per (snap_delta Bw_obs.C_leaf_probe_cmps) ops);
    ("bwtree.depth", float_of_int (List.fold_left (fun a s -> max a s.depth) 0 st));
    ("bwtree.leaf_chain_avg", chain);
    ("bwtree.restarts_per_kop", 1000. *. per (d (fun s -> s.restarts)) ops);
    ("bwtree.failed_cas_per_kop", 1000. *. per (d (fun s -> s.failed_cas)) ops);
    ("bwtree.consolidations_per_kop", 1000. *. per consolidations ops);
    ("bwtree.splits", float_of_int (d (fun s -> s.splits)));
    ("bwtree.merges", float_of_int (d (fun s -> s.merges)));
    ("bwtree.gap_reuse_ratio", per (snap_delta Bw_obs.C_leaf_gap_reuses) consolidations);
    ("bwtree.ptr_derefs_per_op", per (counters Bw_util.Counters.Pointer_deref) ops);
    ("bwtree.key_cmps_per_op", per (counters Bw_util.Counters.Key_compare) ops);
    ("bwtree.allocs_per_op", per (counters Bw_util.Counters.Allocation) ops);
    ("bwtree.self_ns_p50", span_p Span.Tree 0.5);
    ("bwtree.self_ns_p99", span_p Span.Tree Lat.tail_q);
    ("epoch.pending_max", float_of_int pending_max);
    ("epoch.reclaim_ns_p99", reclaim_p99);
    ("mapping_table.ids_allocated",
     float_of_int (List.fold_left (fun a s -> a + s.allocated) 0 mt));
    ("mapping_table.ids_free", float_of_int (List.fold_left (fun a s -> a + s.freed) 0 mt));
    ("gc.minor_words_per_op", perf (g1.Gc.minor_words -. g0.Gc.minor_words) ops);
    ("gc.minor_collections_per_kop",
     1000. *. per (g1.Gc.minor_collections - g0.Gc.minor_collections) ops);
    ("gc.major_collections",
     float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
    ("gc.top_heap_mb",
     float_of_int (g1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.);
  ]

let pending trees =
  List.fold_left (fun a t -> a + Epoch.pending (Bw.epoch t)) 0 trees

(* Before a traced measured phase: counters on and zeroed, spans empty. *)
let begin_trace () =
  Bw_util.Counters.enabled := true;
  Bw_util.Counters.reset Bw_util.Counters.global;
  Span.reset ();
  Atomic.set Span.recording true

let end_trace () =
  Atomic.set Span.recording false;
  Bw_util.Counters.enabled := false

let env_common cfg =
  [
    ( "commit",
      Option.value (Sys.getenv_opt "PERFBENCH_COMMIT") ~default:"unknown" );
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Sys.ocaml_version);
    ("seed", string_of_int cfg.seed);
    ("seconds", Printf.sprintf "%g" cfg.seconds);
  ]
