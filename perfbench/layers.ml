(* Per-layer accounting from the reports the public calls return: the
   phase buckets of Compiler.compiled, Runtime.report, Update.report and
   Incremental.apply_report. Each also becomes a span placed where the
   call ran it (compile first, execution last). *)

module Phases = Dkb_util.Timer.Phases

let phases prefix ph buckets =
  List.iter (fun (metric, bucket) -> Results.add (prefix ^ metric) (Phases.get ph bucket)) buckets

let query ~t0 (a : Core.Session.answer) =
  let t1 = Tracer.now_ms () in
  let c = a.Core.Session.compiled and r = a.Core.Session.run in
  Results.add "compiler.calls" 1.0;
  Results.add "compiler.ms" c.Core.Compiler.compile_ms;
  phases "compiler." c.Core.Compiler.phases
    [
      ("extract_ms", "extract");
      ("readdict_ms", "readdict");
      ("semantic_ms", "semantic");
      ("optimize_ms", "optimize");
      ("codegen_ms", "codegen");
      ("lower_ms", "compile");
    ];
  Results.add "compiler.rules_extracted" (float_of_int c.Core.Compiler.relevant_stored_rules);
  Results.add "runtime.ms" r.Core.Runtime.exec_ms;
  Results.add "runtime.iterations"
    (float_of_int (List.fold_left (fun acc (_, n) -> acc + n) 0 r.Core.Runtime.iterations));
  phases "runtime." r.Core.Runtime.phases
    [
      ("create_drop_ms", "create_drop");
      ("eval_ms", "eval");
      ("termination_ms", "termination");
      ("copy_ms", "copy");
    ];
  Results.add "runtime.new_tuples"
    (float_of_int
       (List.fold_left
          (fun acc ip -> List.fold_left (fun acc (_, n) -> acc + n) acc ip.Core.Runtime.ip_deltas)
          0 r.Core.Runtime.profile));
  Results.add "runtime.rows_inserted" (float_of_int r.Core.Runtime.io.Rdbms.Stats.rows_inserted);
  Tracer.interval ~name:"compile" ~layer:"compiler" ~t0 ~t1:(t0 +. c.Core.Compiler.compile_ms);
  Tracer.interval ~name:"execute" ~layer:"runtime" ~t0:(t1 -. r.Core.Runtime.exec_ms) ~t1

let update (r : Core.Update.report) =
  Results.add "update.calls" 1.0;
  Results.add "update.ms" r.Core.Update.total_ms;
  phases "update." r.Core.Update.phases
    [
      ("lint_ms", "lint");
      ("extract_ms", "extract");
      ("typecheck_ms", "typecheck");
      ("closure_ms", "compiled");
      ("source_ms", "source");
    ];
  Results.add "update.tc_edges" (float_of_int r.Core.Update.tc_edges);
  Tracer.ended ~name:"update" ~layer:"update" r.Core.Update.total_ms

let maint (r : Core.Incremental.apply_report) =
  Results.add "maint.calls" 1.0;
  Results.add "maint.ms" r.Core.Incremental.total_ms;
  Tracer.ended ~name:"apply" ~layer:"maint" r.Core.Incremental.total_ms
