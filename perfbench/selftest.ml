(* The benchmark's correctness checks must be able to fail. Every workload
   runs small twice: once as is, where it must report no failure, and once
   with a driver that drops one write in [every] and answers one read in
   [every] with a stale value, where its checker must report failures. *)

open Common

let every = 97

let () =
  let dir = Filename.concat ".perfbench" "selftest" in
  Stack.mkdir_p dir;
  let ok = ref true in
  List.iter
    (fun (name, w) ->
      let cfg faulty =
        {
          seed = 7;
          seconds = 0.3;
          scale = 0.02;
          wrap = (if faulty then Stack.faulty ~every else Fun.id);
          dir;
        }
      in
      let run faulty = Workloads.run_workload (cfg faulty) w ~traced:false ~setups:1 in
      let clean = run false and bad = run true in
      let pass = clean.failed = 0 && bad.failed > 0 in
      Printf.printf "%-16s clean: %d/%d failed; faulty: %d/%d failed  %s\n%!" name
        clean.failed clean.attempted bad.failed bad.attempted
        (if pass then "ok" else "FAIL");
      if not pass then ok := false)
    (Workloads.workloads @ [ Workloads.batch_pass ]);
  Stack.rm_rf dir;
  if not !ok then exit 1
