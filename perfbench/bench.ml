(* The repository benchmark. Usage:

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Workloads: lfp_deep, kb_session, view_churn, server_mix (see
   README.md). --trace 0 measures the end-to-end metrics for S seconds;
   --trace 1 runs a fixed operation window untraced and then traced and
   reports the per-layer metrics. The last stdout line is the JSON
   result. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let traced = !trace = 1 in
  let closed w = if traced then Loop.traced w ~seed:!seed else Loop.measure w ~seed:!seed ~seconds:!seconds in
  (match !workload with
  | "lfp_deep" -> closed Lfp_deep.workload
  | "kb_session" -> closed Kb_session.workload
  | "view_churn" -> closed View_churn.workload
  | "server_mix" ->
      if traced then Server_mix.traced ~seed:!seed ~seconds:!seconds
      else Server_mix.measure ~seed:!seed ~seconds:!seconds
  | w ->
      Printf.eprintf "unknown workload %S\n" w;
      exit 2);
  Results.print ~workload:!workload ~traced;
  try Sys.rmdir Rundir.root with Sys_error _ -> ()
