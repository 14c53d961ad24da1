(* Metric registry, percentiles and the result line.

   Every run prints a human-readable table (name, value, unit, sample
   count) and then, as its last stdout line, one JSON object:
   {"correct": …, "attempted": …, "failed": …, "metrics": {…}}.
   An untraced run carries every end-to-end metric; a traced run every
   per-layer metric. The two name lists below are the single source of
   truth for both; BENCHMARK.json lists the same names. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("sustained_ops_per_s", "1/s");
    ("read_ms.p50", "ms");
    ("read_ms.p90", "ms");
    ("read_ms.p99", "ms");
    ("write_ms.p50", "ms");
    ("write_ms.p99", "ms");
    ("heap_peak_mb", "MB");
  ]

let layer_shares = [ "session"; "compiler"; "update"; "runtime"; "maint"; "engine"; "wal" ]

let per_layer =
  [
    ("compiler.calls", "count");
    ("compiler.ms", "ms");
    ("compiler.extract_ms", "ms");
    ("compiler.readdict_ms", "ms");
    ("compiler.semantic_ms", "ms");
    ("compiler.optimize_ms", "ms");
    ("compiler.codegen_ms", "ms");
    ("compiler.lower_ms", "ms");
    ("compiler.rules_extracted", "count");
    ("update.calls", "count");
    ("update.ms", "ms");
    ("update.lint_ms", "ms");
    ("update.extract_ms", "ms");
    ("update.typecheck_ms", "ms");
    ("update.closure_ms", "ms");
    ("update.source_ms", "ms");
    ("update.tc_edges", "count");
    ("runtime.ms", "ms");
    ("runtime.iterations", "count");
    ("runtime.create_drop_ms", "ms");
    ("runtime.eval_ms", "ms");
    ("runtime.termination_ms", "ms");
    ("runtime.copy_ms", "ms");
    ("runtime.new_tuples", "count");
    ("runtime.rows_inserted_per_new_tuple", "ratio");
    ("engine.statements", "count");
    ("engine.stmt_ms", "ms");
    ("engine.plan_cache_hit_ratio", "ratio");
    ("engine.card_replans", "count");
    ("engine.rows_read", "count");
    ("engine.rows_inserted", "count");
    ("engine.rows_deleted", "count");
    ("engine.tables_created", "count");
    ("engine.tables_truncated", "count");
    ("engine.page_reads", "count");
    ("engine.page_writes", "count");
    ("engine.index_probes", "count");
    ("pool.hits", "count");
    ("pool.misses", "count");
    ("pool.writebacks", "count");
    ("pool.hit_ratio", "ratio");
    ("pool.frames", "count");
    ("storage.pages", "count");
    ("wal.records", "count");
    ("wal.bytes", "bytes");
    ("wal.bytes_per_write", "bytes");
    ("maint.calls", "count");
    ("maint.ms", "ms");
    ("maint.derived_inserted", "count");
    ("maint.derived_deleted", "count");
    ("maint.rederived", "count");
    ("maint.rederive_ratio", "ratio");
    ("maint.fallbacks", "count");
    ("snapshot.begun", "count");
    ("snapshot.queries", "count");
    ("snapshot.versions_captured", "count");
    ("server.rtt_ms.p50", "ms");
    ("server.rtt_ms.p99", "ms");
    ("client.wait_ms.p99", "ms");
    ("generator.late_ms.max", "ms");
    ("server.busy_refusals", "count");
    ("server.derivations", "count");
    ("gc.minor_words_per_op", "words");
    ("gc.promoted_words_per_op", "words");
    ("gc.major_collections", "count");
    ("gc.minor_words_per_new_tuple", "words");
  ]
  @ List.map (fun l -> ("share_self." ^ l, "%")) layer_shares
  @ List.map (fun l -> ("share_incl." ^ l, "%")) layer_shares
  @ [
      ("trace.ops", "count");
      ("trace.spans", "count");
      ("trace.overhead_pct", "%");
      ("host.probe_ms", "ms");
    ]

(** Monotonic nanosecond clock, in milliseconds: fast point writes are
    a few microseconds, below gettimeofday's resolution. *)
let now_ms () = Int64.to_float (Monotonic_clock.now ()) /. 1e6

(* ------------------------------------------------------------------ *)
(* Values *)

let values : (string, float * int) Hashtbl.t = Hashtbl.create 128

(** [set name v ~n] records a metric value and its sample count. *)
let set ?(n = 1) name v = Hashtbl.replace values name (v, n)

let get name = match Hashtbl.find_opt values name with Some (v, _) -> v | None -> 0.0

(** Accumulate into a per-layer counter (sample count = additions). *)
let add name v =
  let v0, n0 = Option.value (Hashtbl.find_opt values name) ~default:(0.0, 0) in
  Hashtbl.replace values name (v0 +. v, n0 + 1)

let ratio a b = if b > 0.0 then a /. b else 0.0

(* ------------------------------------------------------------------ *)
(* Latency samples *)

(** Nearest-rank percentile of an unsorted sample list. *)
let pct p xs = Dkb_util.Percentile.percentile p xs

let median = Dkb_util.Percentile.median

(* ------------------------------------------------------------------ *)
(* Run-wide outcome *)

let attempted = ref 0
let failed = ref 0
let failures : string list ref = ref []

(** Count one operation; [ok = false] when it errored or an oracle
    rejected its answer. The first few failure messages are printed. *)
let outcome ok why =
  incr attempted;
  if not ok then begin
    incr failed;
    if List.length !failures < 5 then failures := why () :: !failures
  end

let fail_ok = function Ok v -> v | Error msg -> failwith msg

(* ------------------------------------------------------------------ *)
(* GC *)

let heap_peak_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. (1024.0 *. 1024.0)

(* ------------------------------------------------------------------ *)
(* Output *)

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print ~workload ~traced =
  let spec = if traced then per_layer else end_to_end in
  Printf.printf "\n== %s (%s) ==\n" workload (if traced then "traced: per-layer" else "end-to-end");
  List.iter
    (fun (name, unit_) ->
      let v, n = Option.value (Hashtbl.find_opt values name) ~default:(0.0, 0) in
      Printf.printf "  %-36s %14.4f %-6s n=%d\n" name v unit_ n)
    spec;
  Printf.printf "  %-36s %14.6f %-6s n=%d\n" "failed_ratio"
    (ratio (float_of_int !failed) (float_of_int !attempted))
    "ratio" !attempted;
  List.iter (fun m -> Printf.printf "  FAILURE: %s\n" m) (List.rev !failures);
  let metrics =
    List.map
      (fun (name, unit_) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float (get name)) unit_)
      spec
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0 && !attempted > 0)
    (max 1 !attempted) !failed (String.concat ", " metrics)
