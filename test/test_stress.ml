(* Short-mode sweep of the multi-domain stress + invariant harness: 4
   worker domains against the Bw-Tree under all three epoch schemes, with
   unique and non-unique keys, plus two comparator indexes through the
   generic driver adapter. Any journal/oracle divergence, leaked epoch
   garbage, mapping-table accounting drift or structural violation fails
   the test with the harness's diagnostic strings. *)

let scheme_name = function
  | Epoch.Centralized -> "centralized"
  | Epoch.Decentralized -> "decentralized"
  | Epoch.Disabled -> "disabled"

(* Small nodes and low thresholds so a short run still exercises splits,
   merges, consolidation and real reclamation pressure. *)
let tree_config ~scheme ~unique =
  Bwtree.Config.make ~leaf_max:32 ~inner_max:16 ~leaf_chain_max:8
    ~inner_chain_max:2 ~leaf_min:4 ~inner_min:2 ~unique_keys:unique
    ~gc_scheme:scheme ~gc_threshold:32 ()

let check_clean (r : Bw_stress.report) =
  Alcotest.(check (list string)) "no invariant violations" [] r.r_violations;
  Alcotest.(check bool) "ran some phases" true (r.r_phases >= 1);
  Alcotest.(check bool) "evaluated checks" true (r.r_checks > 0)

let bwtree_case ~scheme ~unique () =
  let cfg = { Bw_stress.short_config with seed = 7 } in
  let subject =
    Bw_stress.bwtree_subject
      ~config:(tree_config ~scheme ~unique)
      ~domains:cfg.Bw_stress.domains ()
  in
  let r = Bw_stress.run cfg subject in
  check_clean r;
  (* the acceptance property of the reclamation fixes: quiesced + flushed
     means nothing is left pending *)
  match subject.Bw_stress.s_epoch with
  | Some e -> Alcotest.(check int) "epoch fully drained" 0 (Epoch.pending e)
  | None -> ()

let driver_case mk () =
  let cfg =
    {
      Bw_stress.short_config with
      seed = 11;
      phases = 2;
      churn_domains = 1;
      drive_advance = false;
    }
  in
  let r = Bw_stress.run cfg (Bw_stress.of_driver (mk ())) in
  check_clean r

(* Batch submission racing the same concurrent splitters/mergers: the
   workers push point ops through [execute_batch] in chunks of 8 while
   churn domains force structural change; the journal/oracle replay must
   stay exact. Run once on a single tree and once through a 3-shard
   router (batches spanning shard boundaries). *)
let batch_case ~unique () =
  let cfg = { Bw_stress.short_config with seed = 23; batch = 8 } in
  let subject =
    Bw_stress.bwtree_subject
      ~config:(tree_config ~scheme:Epoch.Decentralized ~unique)
      ~domains:cfg.Bw_stress.domains ()
  in
  check_clean (Bw_stress.run cfg subject)

let batch_forest_case () =
  let cfg =
    {
      Bw_stress.short_config with
      seed = 29;
      batch = 8;
      phases = 2;
      churn_domains = 1;
      drive_advance = false;
    }
  in
  let keyspace = cfg.Bw_stress.domains * cfg.Bw_stress.keys_per_domain in
  let p = Bw_shard.Part.make_int ~lo:0 ~hi:(keyspace - 1) 3 in
  let d =
    Bw_shard.route_int p
      (Array.init 3 (fun _ ->
           Harness.Drivers.Int.bwtree
             ~config:(tree_config ~scheme:Epoch.Decentralized ~unique:true)
             ()))
  in
  check_clean (Bw_stress.run cfg (Bw_stress.of_driver d))

(* Crash-recovery sweep: durable pagestore subjects killed mid-load with
   a corrupted WAL tail; the harness checks per-(worker, shard) prefix
   consistency of the replayed WAL against the journals, a full keyspace
   sweep against the oracle, and a clean checkpoint/reopen cycle. *)
let crash_case ~shards ~batch () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "bwt-test-crash-%d-%d-%d" (Unix.getpid ()) shards batch)
  in
  let cfg =
    {
      (Bw_stress.short_crash_config ~dir) with
      cc_domains = 2;
      cc_keys_per_domain = 96;
      cc_ops_per_phase = 200;
      cc_rounds = 2;
      cc_shards = shards;
      cc_batch = batch;
      cc_seed = 31 + (shards * 7) + batch;
    }
  in
  let r = Bw_stress.run_crash_recovery cfg in
  Alcotest.(check (list string)) "no crash-recovery violations" []
    r.Bw_stress.cr_violations;
  Alcotest.(check bool) "evaluated checks" true (r.Bw_stress.cr_checks > 0);
  Alcotest.(check bool) "journaled writes" true (r.Bw_stress.cr_ops > 0)

let bwtree_cases =
  List.concat_map
    (fun scheme ->
      List.map
        (fun unique ->
          Alcotest.test_case
            (Printf.sprintf "bwtree %s %s-keys" (scheme_name scheme)
               (if unique then "unique" else "non-unique"))
            `Quick
            (bwtree_case ~scheme ~unique))
        [ true; false ])
    [ Epoch.Centralized; Epoch.Decentralized; Epoch.Disabled ]

let () =
  Alcotest.run "stress"
    [
      ("bwtree sweep", bwtree_cases);
      ( "batch submission",
        [
          Alcotest.test_case "unique keys, batch 8" `Quick
            (batch_case ~unique:true);
          Alcotest.test_case "non-unique keys, batch 8" `Quick
            (batch_case ~unique:false);
          Alcotest.test_case "3-shard forest, batch 8" `Quick
            batch_forest_case;
        ] );
      ( "crash recovery",
        [
          Alcotest.test_case "single tree" `Quick
            (crash_case ~shards:1 ~batch:1);
          Alcotest.test_case "single tree, batch 16" `Quick
            (crash_case ~shards:1 ~batch:16);
          Alcotest.test_case "3-shard forest" `Quick
            (crash_case ~shards:3 ~batch:1);
          Alcotest.test_case "3-shard forest, batch 16" `Quick
            (crash_case ~shards:3 ~batch:16);
        ] );
      ( "comparators",
        [
          Alcotest.test_case "skiplist" `Quick
            (driver_case (fun () ->
                 Harness.Drivers.Int.skiplist ()));
          Alcotest.test_case "btree-olc" `Quick
            (driver_case (fun () -> Harness.Drivers.Int.btree ()));
        ] );
    ]
