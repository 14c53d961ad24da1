(* The closed loop shared by lfp_deep, kb_session and view_churn:
   one client issues the next operation only after the previous one
   returned. Operation [i] is a pure function of the seed and [i], so a
   fixed operation count replays exactly. *)

module Stats = Rdbms.Stats
module Engine = Rdbms.Engine

type kind = Read | Write

type op = {
  kind : kind;
  run : unit -> unit -> (unit, string) result;
      (** performs the public call (timed) and returns the check of its
          answer against the oracle (run after the clock stops) *)
}

type 'st workload = {
  setup : seed:int -> 'st;
  teardown : 'st -> unit;
  session : 'st -> Core.Session.t;
  op : 'st -> int -> op;
  warmup : int;  (** untimed operations before measuring (caches, plans) *)
  trace_ops : int;  (** fixed operation count of a traced window *)
}

let setup_reps = 5

let run_op o =
  let t0 = Results.now_ms () in
  let check =
    try o.run ()
    with e ->
      let msg = Printexc.to_string e in
      fun () -> Error msg
  in
  let dt = Results.now_ms () -. t0 in
  let r = try check () with e -> Error (Printexc.to_string e) in
  Results.outcome (Result.is_ok r) (fun () -> match r with Error m -> m | Ok () -> "");
  dt

(* Set up [setup_reps] times and keep the last state: set-up time is a
   metric of its own, reported as the median. *)
let setups w ~seed =
  let times = ref [] in
  let rec go k =
    Gc.compact ();
    ignore (Host.settle ());
    let t0 = Results.now_ms () in
    let st = w.setup ~seed in
    times := ((Results.now_ms () -. t0) /. 1000.0 *. Host.factor ()) :: !times;
    if k > 1 then begin
      w.teardown st;
      go (k - 1)
    end
    else st
  in
  let st = go setup_reps in
  Results.set "setup_s" (Results.median !times) ~n:setup_reps;
  st

let warm w st =
  for i = 0 to w.warmup - 1 do
    ignore (run_op (w.op st i))
  done

let probe_every_ms = 250.0

(* Run operations from index [first] while [continue i]; returns one
   (kind, raw ms, host factor) sample per operation, newest first. *)
let run_ops w st ~first ~continue =
  let samples = ref [] and i = ref first and next_probe = ref 0.0 in
  while continue !i do
    if Results.now_ms () >= !next_probe then begin
      ignore (Host.sample ());
      next_probe := Results.now_ms () +. probe_every_ms
    end;
    let o = w.op st !i in
    let dt = run_op o in
    samples := (o.kind, dt, Host.factor ()) :: !samples;
    incr i
  done;
  !samples

let busy_ms ~scaled samples =
  List.fold_left (fun acc (_, dt, f) -> acc +. if scaled then dt *. f else dt) 0.0 samples

(* The end-to-end metrics of a sample set. Throughput is operations per
   second of client-observed op time, so the benchmark's own answer
   checking is not charged to the program. *)
let record set ~scaled samples =
  let ms (_, dt, f) = if scaled then dt *. f else dt in
  let of_kind k = List.filter_map (fun ((k', _, _) as s) -> if k' = k then Some (ms s) else None) samples in
  let n = List.length samples in
  let ops_per_s = float_of_int n /. (busy_ms ~scaled samples /. 1000.0) in
  set "ops_per_s" ops_per_s n;
  (* a closed loop never builds a backlog: the rate it sustains is the
     rate it completes *)
  set "sustained_ops_per_s" ops_per_s n;
  let reads = of_kind Read and writes = of_kind Write in
  List.iter
    (fun p -> set (Printf.sprintf "read_ms.p%.0f" p) (Results.pct p reads) (List.length reads))
    [ 50.0; 90.0; 99.0 ];
  List.iter
    (fun p -> set (Printf.sprintf "write_ms.p%.0f" p) (Results.pct p writes) (List.length writes))
    [ 50.0; 99.0 ]

(** Untraced: run for [seconds] and record the end-to-end metrics, in
    reference-host units (see Host); the raw figures are printed too. *)
let measure w ~seed ~seconds =
  let st = setups w ~seed in
  warm w st;
  let deadline = Results.now_ms () +. (seconds *. 1000.0) in
  let samples = run_ops w st ~first:w.warmup ~continue:(fun _ -> Results.now_ms () < deadline) in
  record (fun k v n -> Results.set k v ~n) ~scaled:true samples;
  Printf.printf "  raw host times (host probe median %.3f ms, reference %.3f ms):\n"
    (Results.median !Host.all) Host.reference_ms;
  record (fun k v _ -> Printf.printf "    %-32s %14.4f\n" k v) ~scaled:false samples;
  Results.set "heap_peak_mb" (Results.heap_peak_mb ());
  w.teardown st

(* ------------------------------------------------------------------ *)
(* Traced run *)

(** Counter deltas of the engine, its buffer pool and the GC over one
    window, recorded as per-layer metrics. *)
let counters session f =
  let engine = Core.Session.engine session in
  let pool () =
    match Engine.buffer_pool engine with
    | Some p -> Rdbms.Buffer_pool.(hits p, misses p, writebacks p)
    | None -> (0, 0, 0)
  in
  let s0 = Stats.copy (Engine.stats engine) in
  let h0, m0, w0 = pool () in
  let g0 = Gc.quick_stat () in
  let ops = f () in
  let d = Stats.diff (Engine.stats engine) s0 in
  let h1, m1, w1 = pool () in
  let g1 = Gc.quick_stat () in
  let fi = float_of_int in
  let set k v = Results.set k (fi v) in
  set "engine.statements" d.Stats.statements;
  Results.set "engine.plan_cache_hit_ratio"
    (Results.ratio (fi d.Stats.plan_cache_hits) (fi (d.Stats.plan_cache_hits + d.Stats.plan_cache_misses)))
    ~n:(d.Stats.plan_cache_hits + d.Stats.plan_cache_misses);
  set "engine.card_replans" d.Stats.card_replans;
  set "engine.rows_read" d.Stats.rows_read;
  set "engine.rows_inserted" d.Stats.rows_inserted;
  set "engine.rows_deleted" d.Stats.rows_deleted;
  set "engine.tables_created" d.Stats.tables_created;
  set "engine.tables_truncated" d.Stats.tables_truncated;
  set "engine.page_reads" d.Stats.page_reads;
  set "engine.page_writes" d.Stats.page_writes;
  set "engine.index_probes" d.Stats.index_probes;
  set "pool.hits" (h1 - h0);
  set "pool.misses" (m1 - m0);
  set "pool.writebacks" (w1 - w0);
  Results.set "pool.hit_ratio" (Results.ratio (fi (h1 - h0)) (fi (h1 - h0 + m1 - m0))) ~n:(h1 - h0 + m1 - m0);
  (match Engine.buffer_pool engine with Some p -> set "pool.frames" (Rdbms.Buffer_pool.size p) | None -> ());
  set "storage.pages"
    (List.fold_left (fun acc (_, h) -> acc + Rdbms.Heap.page_count h) 0 (Engine.storage_heaps engine));
  set "wal.records" d.Stats.wal_records;
  set "wal.bytes" d.Stats.wal_bytes;
  set "maint.derived_inserted" d.Stats.maint_insertions;
  set "maint.derived_deleted" d.Stats.maint_deletions;
  set "maint.rederived" d.Stats.maint_rederived;
  Results.set "maint.rederive_ratio"
    (Results.ratio (fi d.Stats.maint_rederived) (fi (d.Stats.maint_rederived + d.Stats.maint_deletions)));
  set "maint.fallbacks" d.Stats.maint_fallbacks;
  set "snapshot.begun" d.Stats.snapshots_begun;
  set "snapshot.queries" d.Stats.snapshot_queries;
  set "snapshot.versions_captured" d.Stats.versions_captured;
  let minor = g1.Gc.minor_words -. g0.Gc.minor_words in
  Results.set "gc.minor_words_per_op" (Results.ratio minor (fi ops)) ~n:ops;
  Results.set "gc.promoted_words_per_op"
    (Results.ratio (g1.Gc.promoted_words -. g0.Gc.promoted_words) (fi ops)) ~n:ops;
  set "gc.major_collections" (g1.Gc.major_collections - g0.Gc.major_collections);
  Results.set "gc.minor_words_per_new_tuple" (Results.ratio minor (Results.get "runtime.new_tuples"));
  Results.set "runtime.rows_inserted_per_new_tuple"
    (Results.ratio (Results.get "runtime.rows_inserted") (Results.get "runtime.new_tuples"))

(* Run the fixed window of [trace_ops] operations on a fresh set-up;
   returns the summed op time. *)
let window w ~seed ~traced =
  Gc.compact ();
  let st = w.setup ~seed in
  warm w st;
  Hashtbl.reset Results.values;
  let samples = ref [] in
  let body () =
    samples := run_ops w st ~first:w.warmup ~continue:(fun i -> i < w.warmup + w.trace_ops);
    w.trace_ops
  in
  if traced then begin
    Tracer.instrument (w.session st);
    Tracer.on := true;
    counters (w.session st) body;
    Tracer.on := false
  end
  else ignore (body ());
  w.teardown st;
  let writes = List.length (List.filter (fun (k, _, _) -> k = Write) !samples) in
  (busy_ms ~scaled:true !samples, writes)

(** Traced: the same fixed window twice on fresh set-ups, untraced then
    traced. The traced window yields the per-layer metrics; the
    difference of the two is the tracing overhead. *)
let traced w ~seed =
  let untraced_ms, _ = window w ~seed ~traced:false in
  let traced_ms, writes = window w ~seed ~traced:true in
  Tracer.report ();
  Host.report ();
  Results.set "wal.bytes_per_write" (Results.ratio (Results.get "wal.bytes") (float_of_int writes));
  Results.set "trace.overhead_pct" (100.0 *. (traced_ms -. untraced_ms) /. untraced_ms) ~n:w.trace_ops
