(* The workloads by name. *)

let workloads =
  [
    ("read-zipf", `Local Local.Read_zipf);
    ("write-churn", `Local Local.Write_churn);
    ("served-mixed", `Served);
  ]

(* read-zipf's op stream submitted through exec_batch in batches of 256.
   It is not a workload of its own: read-zipf's traced run replays it to
   read the batch path's layer, the index_iface.batch metrics. *)
let batch_pass = ("read-zipf batch pass", `Local Local.Read_zipf_b256)

let run_workload cfg w ~traced ~setups =
  match w with
  | `Local k -> Local.run_once cfg k ~traced ~setups
  | `Served -> Served.run_once cfg ~traced ~setups
