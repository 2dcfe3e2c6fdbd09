(* Concurrency tests for the Bw-Tree: disjoint and contended multi-domain
   workloads, SMO interleavings under tiny nodes, the high-contention
   right-edge storm, and linearizability-ish spot checks. *)

module IK = Index_iface.Int_key
module IV = Index_iface.Int_value
module T = Bwtree.Make (IK) (IV)

let tiny =
  Bwtree.Config.make ~leaf_max:8 ~inner_max:6 ~leaf_chain_max:4
    ~inner_chain_max:2 ~leaf_min:2 ~inner_min:2 ()

let spawn_workers n f =
  let domains = Array.init n (fun tid -> Domain.spawn (fun () -> f tid)) in
  Array.iter Domain.join domains

let test_disjoint_inserts () =
  let nthreads = 6 and per = 8_000 in
  let t = T.create () in
  spawn_workers nthreads (fun tid ->
      for i = 0 to per - 1 do
        let k = (i * nthreads) + tid in
        assert (T.insert t ~tid k (k * 2))
      done;
      T.quiesce t ~tid);
  T.verify_invariants t;
  Alcotest.(check int) "all present" (nthreads * per) (T.cardinal t);
  for k = 0 to (nthreads * per) - 1 do
    assert (T.lookup t k = [ k * 2 ])
  done

let test_contended_same_keys () =
  (* all threads try to insert the same keys; exactly one wins each *)
  let nthreads = 6 and nkeys = 3_000 in
  let t = T.create ~config:tiny () in
  let wins = Array.init nthreads (fun _ -> Atomic.make 0) in
  spawn_workers nthreads (fun tid ->
      for k = 0 to nkeys - 1 do
        if T.insert t ~tid k tid then
          ignore (Atomic.fetch_and_add wins.(tid) 1)
      done;
      T.quiesce t ~tid);
  let total = Array.fold_left (fun acc w -> acc + Atomic.get w) 0 wins in
  Alcotest.(check int) "each key inserted exactly once" nkeys total;
  T.verify_invariants t;
  Alcotest.(check int) "cardinal" nkeys (T.cardinal t)

let test_mixed_workload () =
  let nthreads = 6 and per = 10_000 in
  let t = T.create ~config:tiny () in
  T.start_gc_thread t ~interval_s:0.002 ();
  spawn_workers nthreads (fun tid ->
      let rng = Bw_util.Rng.create ~seed:(Int64.of_int (tid + 77)) in
      for _ = 1 to per do
        let k = Bw_util.Rng.next_int rng 2_000 in
        match Bw_util.Rng.next_int rng 4 with
        | 0 -> ignore (T.insert t ~tid k k)
        | 1 -> ignore (T.delete t ~tid k k)
        | 2 -> ignore (T.update t ~tid k (k + 1))
        | _ -> ignore (T.lookup t ~tid k)
      done;
      T.quiesce t ~tid);
  T.stop_gc_thread t;
  T.verify_invariants t;
  (* values must be one of the two writable values for their key *)
  List.iter
    (fun (k, v) ->
      Alcotest.(check bool) "value provenance" true (v = k || v = k + 1))
    (T.scan_all t ())

let test_concurrent_split_merge_storm () =
  (* insert/delete waves over a small key range with tiny nodes: constant
     splits and merges interleaving across threads *)
  let nthreads = 4 and rounds = 6 in
  let t = T.create ~config:tiny () in
  for round = 1 to rounds do
    spawn_workers nthreads (fun tid ->
        let lo = tid * 500 in
        if round mod 2 = 1 then
          for k = lo to lo + 499 do
            ignore (T.insert t ~tid k k)
          done
        else
          for k = lo to lo + 499 do
            ignore (T.delete t ~tid k k)
          done;
        T.quiesce t ~tid);
    T.verify_invariants t
  done;
  Alcotest.(check int) "even rounds end empty" 0 (T.cardinal t);
  let os = T.op_stats t in
  Alcotest.(check bool) "merges exercised" true (os.merges > 0);
  Alcotest.(check bool) "splits exercised" true (os.splits > 0)

let test_high_contention_right_edge () =
  (* §6.2: every thread appends at the index's right edge *)
  let nthreads = 8 in
  let t = T.create ~config:tiny () in
  let hc = Workload.Hc.create ~nthreads in
  let per = 4_000 in
  spawn_workers nthreads (fun tid ->
      for _ = 1 to per do
        let k = Workload.Hc.next hc ~tid in
        assert (T.insert t ~tid k tid)
      done;
      T.quiesce t ~tid);
  T.verify_invariants t;
  Alcotest.(check int) "no lost inserts" (nthreads * per) (T.cardinal t);
  let os = T.op_stats t in
  Alcotest.(check bool) "contention observed (failed CaS)" true
    (os.failed_cas > 0)

let test_readers_never_block () =
  (* readers run against a continuously-mutating tree and always see a
     value written by some writer for that key *)
  let t = T.create ~config:tiny () in
  for k = 0 to 999 do
    assert (T.insert t k 0)
  done;
  let stop = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        let rng = Bw_util.Rng.create ~seed:123L in
        while not (Atomic.get stop) do
          let k = Bw_util.Rng.next_int rng 1_000 in
          ignore (T.update t ~tid:0 k (Bw_util.Rng.next_int rng 1_000_000))
        done;
        T.quiesce t ~tid:0)
  in
  let ok = ref true in
  spawn_workers 3 (fun w ->
      let tid = w + 1 in
      let rng = Bw_util.Rng.create ~seed:(Int64.of_int (555 + tid)) in
      for _ = 1 to 20_000 do
        let k = Bw_util.Rng.next_int rng 1_000 in
        match T.lookup t ~tid k with
        | [ _ ] -> ()
        | _ -> ok := false
      done;
      T.quiesce t ~tid);
  Atomic.set stop true;
  Domain.join writer;
  Alcotest.(check bool) "every read observed exactly one value" true !ok;
  T.verify_invariants t

let test_read_consolidation_provenance () =
  (* 2 reader domains and 1 updater over 512 keys, small leaves, reads
     consolidating as they go (point lookups and batches). Every value
     written for key k is k * scale + seq, with seq rising per key and
     published before the write, so each read proves its provenance:
     the right key, a seq the updater had reached, and never older than
     what the same reader saw before. *)
  let nkeys = 512 and scale = 1_000_000 in
  let config =
    Bwtree.Config.make ~leaf_max:16 ~inner_max:8 ~leaf_min:2 ~inner_min:2 ()
  in
  let t = T.create ~config () in
  for k = 0 to nkeys - 1 do
    assert (T.insert t k (k * scale))
  done;
  let published = Array.init nkeys (fun _ -> Atomic.make 0) in
  let stop = Atomic.make false in
  let bad = Atomic.make 0 in
  let updater =
    Domain.spawn (fun () ->
        let rng = Bw_util.Rng.create ~seed:99L in
        let next k =
          let s = Atomic.get published.(k) + 1 in
          Atomic.set published.(k) s;
          (k * scale) + s
        in
        let i = ref 0 in
        while not (Atomic.get stop) do
          incr i;
          let k = Bw_util.Rng.next_int rng nkeys in
          if !i mod 4 <> 0 then begin
            if not (T.update t ~tid:0 k (next k)) then Atomic.incr bad
          end
          else begin
            (* read-then-update runs through one batch: the sole writer
               must read exactly what it last wrote *)
            let ks = Array.init 8 (fun j -> (k + j) mod nkeys) in
            let expect =
              Array.map (fun k -> (k * scale) + Atomic.get published.(k)) ks
            in
            let ops =
              Array.init 16 (fun j ->
                  let k = ks.(j / 2) in
                  if j mod 2 = 0 then (k, T.B_get) else (k, T.B_update (next k)))
            in
            Array.iteri
              (fun j r ->
                let ok =
                  match r with
                  | T.R_values [ v ] -> j mod 2 = 0 && v = expect.(j / 2)
                  | T.R_applied true -> j mod 2 = 1
                  | _ -> false
                in
                if not ok then Atomic.incr bad)
              (T.execute_batch t ~tid:0 ops)
          end
        done;
        T.quiesce t ~tid:0)
  in
  spawn_workers 2 (fun w ->
      let tid = w + 1 in
      let rng = Bw_util.Rng.create ~seed:(Int64.of_int (700 + tid)) in
      let last = Array.make nkeys 0 in
      let check k v =
        let s = v - (k * scale) in
        if s < last.(k) || s > Atomic.get published.(k) then Atomic.incr bad
        else last.(k) <- s
      in
      for i = 1 to 40_000 do
        let k = Bw_util.Rng.next_int rng nkeys in
        if i mod 4 <> 0 then
          match T.lookup t ~tid k with
          | [ v ] -> check k v
          | _ -> Atomic.incr bad
        else
          let ks = Array.init 16 (fun j -> (k + j) mod nkeys) in
          Array.iteri
            (fun j r ->
              match r with
              | T.R_values [ v ] -> check ks.(j) v
              | _ -> Atomic.incr bad)
            (T.execute_batch t ~tid (Array.map (fun k -> (k, T.B_get)) ks))
      done;
      T.quiesce t ~tid);
  Atomic.set stop true;
  Domain.join updater;
  Alcotest.(check int) "every read proved its provenance" 0 (Atomic.get bad);
  Alcotest.(check bool) "reads consolidated" true (T.read_consolidations t > 0);
  T.verify_invariants t;
  for k = 0 to nkeys - 1 do
    Alcotest.(check (list int))
      "final value"
      [ (k * scale) + Atomic.get published.(k) ]
      (T.lookup t k)
  done

let test_concurrent_iteration () =
  (* scans run while writers insert; scans must return ascending keys *)
  let t = T.create ~config:tiny () in
  for k = 0 to 499 do
    assert (T.insert t (k * 4) k)
  done;
  let stop = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        let rng = Bw_util.Rng.create ~seed:321L in
        while not (Atomic.get stop) do
          let k = Bw_util.Rng.next_int rng 2_000 in
          ignore (T.insert t ~tid:0 k k);
          ignore (T.delete t ~tid:0 k k)
        done;
        T.quiesce t ~tid:0)
  in
  let sorted_ok = ref true in
  spawn_workers 2 (fun w ->
      let tid = w + 1 in
      for i = 0 to 300 do
        let start = i * 4 mod 1_000 in
        let items = T.scan t ~tid ~n:40 start in
        let keys = List.map fst items in
        if List.sort compare keys <> keys then sorted_ok := false
      done;
      T.quiesce t ~tid);
  Atomic.set stop true;
  Domain.join writer;
  Alcotest.(check bool) "scans stayed sorted" true !sorted_ok;
  T.verify_invariants t

let test_gc_schemes_under_concurrency () =
  List.iter
    (fun scheme ->
      let t = T.create ~config:{ tiny with gc_scheme = scheme } () in
      T.start_gc_thread t ~interval_s:0.002 ();
      spawn_workers 4 (fun tid ->
          for i = 0 to 4_999 do
            let k = (i * 4) + tid in
            assert (T.insert t ~tid k k)
          done;
          T.quiesce t ~tid);
      T.stop_gc_thread t;
      T.verify_invariants t;
      Alcotest.(check int) "complete" 20_000 (T.cardinal t);
      Epoch.flush (T.epoch t);
      Alcotest.(check int) "drained" 0 (Epoch.pending (T.epoch t)))
    [ Epoch.Centralized; Epoch.Decentralized ]

let () =
  Alcotest.run "bwtree-concurrent"
    [
      ( "inserts",
        [
          Alcotest.test_case "disjoint" `Slow test_disjoint_inserts;
          Alcotest.test_case "contended same keys" `Slow
            test_contended_same_keys;
        ] );
      ( "mixed",
        [
          Alcotest.test_case "mixed workload" `Slow test_mixed_workload;
          Alcotest.test_case "split/merge storm" `Slow
            test_concurrent_split_merge_storm;
        ] );
      ( "contention",
        [
          Alcotest.test_case "right-edge storm" `Slow
            test_high_contention_right_edge;
        ] );
      ( "readers",
        [
          Alcotest.test_case "readers never block" `Slow
            test_readers_never_block;
          Alcotest.test_case "read consolidation provenance" `Slow
            test_read_consolidation_provenance;
          Alcotest.test_case "concurrent iteration" `Slow
            test_concurrent_iteration;
        ] );
      ( "gc",
        [
          Alcotest.test_case "both schemes" `Slow
            test_gc_schemes_under_concurrency;
        ] );
    ]
