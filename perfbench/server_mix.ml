(* server_mix: traffic against dkb_server in its own process.

   The server is a forked child running Dkb_server.Server.run over one
   engine with a WAL attached (flush at COMMIT). The load generator, in
   the parent process, opens two connections and runs two phases:

   - closed loop (the first [closed_share] of the run): one request at a
     time on the first connection, 9 snapshot point reads (prepared EXEC
     of a SELECT by key inside a pinned BEGIN SNAPSHOT) to one
     auto-commit INSERT (release the snapshot, insert, re-pin; the new
     snapshot's row count must equal the rows inserted). The end-to-end
     metrics come from here: the server is idle between requests, so
     the host probe can run there;
   - rate ladder (the rest): the first connection goes open loop, each
     request timed from its due time, while the second runs a deriver
     back to back: INSERT or DELETE of one extra leaf edge and an
     ancestor QUERY, whose LFP iterations pump the pending snapshot
     reads. sustained_ops_per_s is the throughput achieved at the
     highest rung whose read p99 stays within [limit_ms] with no growing
     backlog. Latency under this interference spread too widely from
     run to run (interquartile range 0.3-0.5 of the median over ten
     runs) to be held to a bound; it is printed per rung, and the
     traced run reports its round trips and waits per layer.

   It is the only workload that drives the select loop, the wire
   protocol, the writer gate, snapshot versions and the LFP pump. *)

module Client = Dkb_server.Client
module Session = Core.Session
module Stats = Rdbms.Stats

let rows = 2000
let tree_depth = 9
let write_every = 10
(* offered rates, each with its share of a ladder pass; on the reference
   host the top rung saturates the open-loop connection *)
let ladder = [ (150.0, 0.35); (300.0, 0.45); (1200.0, 0.20) ]
let limit_ms = 50.0

(* The ladder phase climbs the ladder [passes] times; the sustained rate
   is the median over passes. *)
let passes = 2

(* offered rate of the traced run's windows *)
let trace_rate = 300.0

let bal k = (3 * k) + 1

(* ------------------------------------------------------------------ *)
(* The server process *)

type server = {
  pid : int;
  from_child : in_channel;
  port : int;
  dir : string;
}

(* Runs in the child: build the engine, serve, then report the engine's
   counters and the process's GC figures on the pipe. *)
let child ~dir ~traced out =
  let s = Session.create () in
  let engine = Session.engine s in
  Rdbms.Engine.set_sanitize engine false;
  let ok = Results.fail_ok in
  ignore (ok (Session.sql s "CREATE TABLE acct (id integer, bal integer)"));
  let rec fill lo =
    if lo < rows then begin
      let hi = min rows (lo + 250) in
      let vals = List.init (hi - lo) (fun i -> Printf.sprintf "(%d, %d)" (lo + i) (bal (lo + i))) in
      ignore (ok (Session.sql s ("INSERT INTO acct VALUES " ^ String.concat ", " vals)));
      fill hi
    end
  in
  fill 0;
  ignore (ok (Session.sql s "CREATE INDEX idx_acct_id ON acct (id)"));
  let tree = Workload.Graphgen.full_binary_tree ~depth:tree_depth () in
  ok (Workload.Queries.setup_parent s tree.Workload.Graphgen.t_edges);
  ok (Session.load_rules s Workload.Queries.ancestor_rules);
  ignore (ok (Session.update_stored s ~clear:true ()));
  ok (Session.attach_wal s (Filename.concat dir "wal.log"));
  let stmt_ms = ref 0.0 in
  if traced then begin
    let t0 = ref 0.0 in
    Rdbms.Engine.set_trace_hook engine
      (Some
         (function
         | Rdbms.Engine.Tr_stmt_begin _ -> t0 := Results.now_ms ()
         | Rdbms.Engine.Tr_stmt_end _ -> stmt_ms := !stmt_ms +. (Results.now_ms () -. !t0)
         | Rdbms.Engine.Tr_plan _ -> ()))
  end;
  let server = Dkb_server.Server.create engine in
  Printf.fprintf out "%d\n%!" (Dkb_server.Server.port server);
  let s0 = Stats.copy (Rdbms.Engine.stats engine) in
  let g0 = Gc.quick_stat () in
  Dkb_server.Server.run server;
  let d = Stats.diff (Rdbms.Engine.stats engine) s0 in
  let g1 = Gc.quick_stat () in
  Printf.fprintf out
    "statements=%d hits=%d misses=%d rows_read=%d rows_inserted=%d rows_deleted=%d \
     tables_created=%d tables_truncated=%d page_reads=%d page_writes=%d index_probes=%d \
     card_replans=%d wal_records=%d wal_bytes=%d snapshots=%d snapshot_queries=%d \
     versions=%d minor=%.0f promoted=%.0f majors=%d top_heap_words=%d stmt_us=%.0f\n%!"
    d.Stats.statements d.Stats.plan_cache_hits d.Stats.plan_cache_misses d.Stats.rows_read
    d.Stats.rows_inserted d.Stats.rows_deleted d.Stats.tables_created d.Stats.tables_truncated
    d.Stats.page_reads d.Stats.page_writes d.Stats.index_probes d.Stats.card_replans
    d.Stats.wal_records d.Stats.wal_bytes d.Stats.snapshots_begun d.Stats.snapshot_queries
    d.Stats.versions_captured
    (g1.Gc.minor_words -. g0.Gc.minor_words)
    (g1.Gc.promoted_words -. g0.Gc.promoted_words)
    (g1.Gc.major_collections - g0.Gc.major_collections)
    g1.Gc.top_heap_words (1000.0 *. !stmt_ms)

let start ~traced =
  let dir = Rundir.fresh "server_mix" in
  let rd, wr = Unix.pipe ~cloexec:true () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let out = Unix.out_channel_of_descr wr in
      let code =
        try
          child ~dir ~traced out;
          0
        with e ->
          Printf.eprintf "server_mix server: %s\n%!" (Printexc.to_string e);
          1
      in
      Unix._exit code
  | pid -> (
      Unix.close wr;
      let from_child = Unix.in_channel_of_descr rd in
      match int_of_string_opt (String.trim (input_line from_child)) with
      | Some port -> { pid; from_child; port; dir }
      | None | (exception End_of_file) ->
          ignore (Unix.waitpid [] pid);
          failwith "server process did not start")

(* Stop the server, wait for it, and return its final report. *)
let stop srv =
  (match Client.connect ~port:srv.port () with
  | Ok c ->
      ignore (Client.request c "SHUTDOWN");
      Client.close c
  | Error _ -> Unix.kill srv.pid Sys.sigkill);
  let report = try input_line srv.from_child with End_of_file -> "" in
  close_in srv.from_child;
  ignore (Unix.waitpid [] srv.pid);
  Rundir.remove srv.dir;
  List.filter_map
    (fun kv ->
      match String.index_opt kv '=' with
      | Some i ->
          Some (String.sub kv 0 i, float_of_string (String.sub kv (i + 1) (String.length kv - i - 1)))
      | None -> None)
    (String.split_on_char ' ' report)

(* ------------------------------------------------------------------ *)
(* Clients *)

let cok what = function Ok v -> v | Error msg -> failwith (what ^ ": " ^ msg)

type conns = {
  srv : server;
  ol : Client.t;  (** reads and acct inserts *)
  dv : Client.t;  (** deriver *)
  seed : int;
  mutable inserted : int;  (** acct rows inserted through [ol] *)
}

let count_rows c =
  match Client.command c "SQL SELECT COUNT(*) FROM acct" with
  | Ok r -> ( match Client.rows r with [ [ n ] ] -> int_of_string_opt n | _ -> None)
  | Error _ -> None

let setup ~seed ~traced =
  let srv = start ~traced in
  let ol = cok "connect" (Client.connect ~port:srv.port ()) in
  let dv = cok "connect" (Client.connect ~port:srv.port ()) in
  ignore (cok "prepare" (Client.prepare ol "pt" "SELECT bal FROM acct WHERE id = ?1"));
  ignore (cok "pin" (Client.begin_snapshot ol));
  { srv; ol; dv; seed; inserted = 0 }

let teardown c =
  Client.close c.ol;
  Client.close c.dv;
  stop c.srv

(* ------------------------------------------------------------------ *)
(* The deriver: closed loop of edge churn and ancestor derivations *)

type deriver = {
  mutable running : bool;
  mutable derivations : int;
  mutable d_ops : int;
  mutable d_failed : int;
  mutable d_busy : int;
  mutable d_first_error : string option;
}

(* the deriver adds and removes one edge below a leaf of the tree *)
let tree = Workload.Graphgen.full_binary_tree ~depth:tree_depth ()
let extra_edge = (List.hd (Workload.Graphgen.tree_nodes_at_level tree tree_depth), 1_000_000)

(* BFS answers of ancestor(1, W) with and without the extra edge *)
let oracles () =
  let reach edges = Oracle.reachable (Oracle.succ_table edges) 1 in
  (reach (extra_edge :: tree.Workload.Graphgen.t_edges), reach tree.Workload.Graphgen.t_edges)

let answer_nodes r =
  List.sort compare
    (List.map (fun row -> int_of_string (List.nth row (List.length row - 1))) (Client.rows r))

let deriver c =
  let extra = extra_edge in
  let with_extra, without = oracles () in
  let d =
    { running = true; derivations = 0; d_ops = 0; d_failed = 0; d_busy = 0; d_first_error = None }
  in
  let fail msg =
    d.d_failed <- d.d_failed + 1;
    if d.d_first_error = None then d.d_first_error <- Some msg
  in
  let request line check =
    d.d_ops <- d.d_ops + 1;
    match Client.request c.dv line with
    | Error msg -> fail msg
    | Ok r when not r.Client.ok ->
        if String.length r.Client.message >= 4 && String.sub r.Client.message 0 4 = "busy" then
          d.d_busy <- d.d_busy + 1;
        fail (line ^ ": " ^ r.Client.message)
    | Ok r -> if not (check r) then fail (line ^ ": wrong answer")
  in
  let query expect =
    request "QUERY ancestor(1, W)" (fun r ->
        d.derivations <- d.derivations + 1;
        answer_nodes r = expect)
  in
  let affected r = Client.field r "affected" = Some "1" in
  let body () =
    while d.running do
      request (Printf.sprintf "SQL INSERT INTO parent VALUES (%d, %d)" (fst extra) (snd extra)) affected;
      query with_extra;
      request
        (Printf.sprintf "SQL DELETE FROM parent WHERE par = %d AND child = %d" (fst extra) (snd extra))
        affected;
      query without
    done
  in
  (d, Thread.create body ())

(* ------------------------------------------------------------------ *)
(* The open loop *)

type rung = {
  rate : float;
  reads : float list;  (** due -> reply *)
  writes : float list;
  rtts : float list;  (** send -> reply *)
  waits : float list;  (** due -> send *)
  late_max : float;  (** generator lateness: send - due when the connection was idle *)
  backlog_ms : float;  (** lateness of the rung's last request *)
  completed : int;
  span_ms : float;
}

let sleep_until t =
  let dt = t -. Results.now_ms () in
  if dt > 0.0 then Unix.sleepf (dt /. 1000.0)

let open_loop c ~seed ~rate ~seconds =
  let rng = Dkb_util.Rng.create ((seed * 1_000_003) + int_of_float rate) in
  let start = Results.now_ms () +. 5.0 in
  let n = int_of_float (rate *. seconds) in
  let reads = ref [] and writes = ref [] and rtts = ref [] and waits = ref [] in
  let late_max = ref 0.0 and last_wait = ref 0.0 and last_reply = ref start in
  for k = 0 to n - 1 do
    let due = start +. (float_of_int k *. 1000.0 /. rate) in
    sleep_until due;
    let sent = Results.now_ms () in
    if !last_reply <= due then late_max := Float.max !late_max (sent -. due);
    let ok, is_write =
      if k mod write_every = write_every - 1 then begin
        (* release the snapshot, insert, re-pin and check the pinned count *)
        let id = rows + c.inserted in
        let released = Client.commit c.ol in
        let ins = Client.sql c.ol (Printf.sprintf "INSERT INTO acct VALUES (%d, %d)" id (bal id)) in
        let t_ins = Results.now_ms () in
        let inserted = match ins with Ok r -> r.Client.ok && Client.field r "affected" = Some "1" | Error _ -> false in
        if inserted then c.inserted <- c.inserted + 1;
        let pinned = Result.is_ok (Client.begin_snapshot c.ol) in
        writes := (t_ins -. due) :: !writes;
        (Result.is_ok released && inserted && pinned && count_rows c.ol = Some (rows + c.inserted), true)
      end
      else begin
        let key = Dkb_util.Rng.int rng rows in
        let r = Client.exec c.ol "pt" [ string_of_int key ] in
        let ok =
          match r with
          | Ok r -> r.Client.ok && Client.rows r = [ [ string_of_int (bal key) ] ]
          | Error _ -> false
        in
        (ok, false)
      end
    in
    let reply = Results.now_ms () in
    last_reply := reply;
    if not is_write then reads := (reply -. due) :: !reads;
    rtts := (reply -. sent) :: !rtts;
    waits := (sent -. due) :: !waits;
    last_wait := sent -. due;
    Results.outcome ok (fun () -> Printf.sprintf "open-loop request %d at %.0f/s failed" k rate)
  done;
  {
    rate;
    reads = !reads;
    writes = !writes;
    rtts = !rtts;
    waits = !waits;
    late_max = !late_max;
    backlog_ms = !last_wait;
    completed = n;
    span_ms = !last_reply -. start;
  }

let within_limit r = Results.pct 99.0 r.reads <= limit_ms && r.backlog_ms <= limit_ms
let achieved r = float_of_int r.completed /. (r.span_ms /. 1000.0)

(* Run the open loop at each (rate, seconds) while the deriver churns;
   returns the rungs, the deriver's tally and the server's report. *)
let drive c ~seed ~rates =
  let d, th = deriver c in
  let rungs =
    Fun.protect
      ~finally:(fun () ->
        d.running <- false;
        Thread.join th)
      (fun () ->
        List.map
          (fun (rate, seconds) -> open_loop c ~seed ~rate ~seconds)
          rates)
  in
  let report = teardown c in
  Results.attempted := !Results.attempted + d.d_ops;
  Results.failed := !Results.failed + d.d_failed;
  Option.iter (fun m -> Results.failures := ("deriver: " ^ m) :: !Results.failures) d.d_first_error;
  (rungs, d, report)

let reads rungs = List.concat_map (fun r -> r.reads) rungs
let field report k = Option.value (List.assoc_opt k report) ~default:0.0

let heap_mb report = field report "top_heap_words" *. float_of_int (Sys.word_size / 8) /. (1024.0 *. 1024.0)

(* ------------------------------------------------------------------ *)
(* End-to-end run *)

(* The closed-loop phase: one client, one request at a time, so the
   server is idle between operations and the host probe (see Host) can
   run there. In every 10 operations: 9 snapshot point reads and one
   auto-commit INSERT (release, insert, re-pin; the pinned count is
   checked after the clock stops). *)
type closed = { c : conns; mutable report : (string * float) list }

let closed_op st i =
  let c = st.c in
  if i mod write_every = write_every - 1 then
    let run () =
      let id = rows + c.inserted in
      let released = Client.commit c.ol in
      let ins = Client.sql c.ol (Printf.sprintf "INSERT INTO acct VALUES (%d, %d)" id (bal id)) in
      let pinned = Client.begin_snapshot c.ol in
      let inserted =
        match ins with Ok r -> r.Client.ok && Client.field r "affected" = Some "1" | Error _ -> false
      in
      if inserted then c.inserted <- c.inserted + 1;
      fun () ->
        if Result.is_ok released && inserted && Result.is_ok pinned
           && count_rows c.ol = Some (rows + c.inserted)
        then Ok ()
        else Error (Printf.sprintf "INSERT of acct %d with snapshot refresh failed" id)
    in
    Loop.{ kind = Write; run }
  else
    let key = Dkb_util.Rng.int (Dkb_util.Rng.create ((st.c.seed * 1_000_003) + i)) rows in
    let run () =
      let r = Client.exec c.ol "pt" [ string_of_int key ] in
      fun () ->
        match r with
        | Ok r when r.Client.ok && Client.rows r = [ [ string_of_int (bal key) ] ] -> Ok ()
        | Ok _ -> Error (Printf.sprintf "snapshot read of key %d" key)
        | Error m -> Error m
    in
    Loop.{ kind = Read; run }

let closed_workload =
  Loop.
    {
      setup = (fun ~seed -> { c = setup ~seed ~traced:false; report = [] });
      teardown = (fun st -> st.report <- teardown st.c);
      session = (fun _ -> invalid_arg "server_mix: the session lives in the server process");
      op = closed_op;
      warmup = 40;
      trace_ops = 0;
    }

(* Share of the run spent in the closed-loop phase; the rest climbs the
   rate ladder. *)
let closed_share = 0.6

let measure ~seed ~seconds =
  let st = ref None in
  let w = { closed_workload with Loop.teardown = (fun s -> closed_workload.Loop.teardown s; st := Some s) } in
  Loop.measure w ~seed ~seconds:(closed_share *. seconds);
  Option.iter (fun s -> Results.set "heap_peak_mb" (heap_mb s.report)) !st;
  (* the ladder: latency under the deriver's interference *)
  let c = setup ~seed ~traced:false in
  let pass_s = (1.0 -. closed_share) *. seconds /. float_of_int passes in
  let rates = List.concat (List.init passes (fun _ -> List.map (fun (r, share) -> (r, share *. pass_s)) ladder)) in
  let rungs, _, _ = drive c ~seed ~rates in
  Printf.printf "  rate ladder (host times):\n  rate/s  reads  read_p50  read_p99  backlog_ms  achieved/s  within %.0f ms\n" limit_ms;
  List.iter
    (fun r ->
      Printf.printf "  %6.0f %6d %9.3f %9.3f %11.3f %11.1f  %b\n" r.rate (List.length r.reads)
        (Results.pct 50.0 r.reads) (Results.pct 99.0 r.reads) r.backlog_ms (achieved r)
        (within_limit r))
    rungs;
  let rec split = function
    | [] -> []
    | l ->
        let n = List.length ladder in
        List.filteri (fun i _ -> i < n) l :: split (List.filteri (fun i _ -> i >= n) l)
  in
  Results.set "sustained_ops_per_s"
    (Results.median
       (List.map
          (fun pass -> List.fold_left (fun acc r -> if within_limit r then achieved r else acc) 0.0 pass)
          (split rungs)))
    ~n:(List.length rungs)

(* Traced: one untraced and one traced window of [seconds]/2 each at a
   fixed offered rate; the server reports its counter deltas and its
   statement time, the client its round trips and waits. *)
let traced ~seed ~seconds =
  let window ~traced =
    let c = setup ~seed ~traced in
    drive c ~seed ~rates:[ (trace_rate, seconds /. 2.0) ]
  in
  let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (List.length xs)) in
  ignore (Host.settle ());
  let untraced, _, _ = window ~traced:false in
  let rungs, d, report = window ~traced:true in
  let f = field report in
  let set k v = Results.set k v in
  set "engine.statements" (f "statements");
  Results.set "engine.plan_cache_hit_ratio" (Results.ratio (f "hits") (f "hits" +. f "misses"));
  List.iter
    (fun (m, k) -> set m (f k))
    [
      ("engine.card_replans", "card_replans");
      ("engine.rows_read", "rows_read");
      ("engine.rows_inserted", "rows_inserted");
      ("engine.rows_deleted", "rows_deleted");
      ("engine.tables_created", "tables_created");
      ("engine.tables_truncated", "tables_truncated");
      ("engine.page_reads", "page_reads");
      ("engine.page_writes", "page_writes");
      ("engine.index_probes", "index_probes");
      ("wal.records", "wal_records");
      ("wal.bytes", "wal_bytes");
      ("snapshot.begun", "snapshots");
      ("snapshot.queries", "snapshot_queries");
      ("snapshot.versions_captured", "versions");
      ("gc.major_collections", "majors");
    ];
  set "engine.stmt_ms" (f "stmt_us" /. 1000.0);
  let writes = List.fold_left (fun acc r -> acc + List.length r.writes) 0 rungs in
  let requests = List.fold_left (fun acc r -> acc + r.completed) 0 rungs + d.d_ops in
  set "wal.bytes_per_write" (Results.ratio (f "wal_bytes") (float_of_int (writes + (d.d_ops / 2))));
  set "gc.minor_words_per_op" (Results.ratio (f "minor") (float_of_int requests));
  set "gc.promoted_words_per_op" (Results.ratio (f "promoted") (float_of_int requests));
  let rtts = List.concat_map (fun r -> r.rtts) rungs in
  Results.set "server.rtt_ms.p50" (Results.pct 50.0 rtts) ~n:(List.length rtts);
  Results.set "server.rtt_ms.p99" (Results.pct 99.0 rtts) ~n:(List.length rtts);
  let waits = List.concat_map (fun r -> r.waits) rungs in
  Results.set "client.wait_ms.p99" (Results.pct 99.0 waits) ~n:(List.length waits);
  set "generator.late_ms.max" (List.fold_left (fun acc r -> Float.max acc r.late_max) 0.0 rungs);
  set "server.busy_refusals" (float_of_int d.d_busy);
  set "server.derivations" (float_of_int d.derivations);
  Host.report ();
  let u = mean (reads untraced) and t = mean (reads rungs) in
  Results.set "trace.overhead_pct" (100.0 *. (t -. u) /. u) ~n:(List.length (reads rungs));
  Results.set "trace.ops" (float_of_int requests)
