(* view_churn: incremental view maintenance on paged storage with a WAL.

   An edge base (a depth-11 full binary tree, 2,046 edges) lives in
   slotted-page heaps behind a buffer pool with fewer frames than the
   persisted tables have pages, so scans miss: this is the workload
   larger than the program's own cache (lfp_deep fits in memory). A WAL
   is attached with the engine's flush-at-COMMIT policy. anc (recursive:
   DRed) and hop2 (non-recursive: counting) are materialized.

   The closed loop alternates a write and a read. A write moves a
   "hole" through the tree: one Session.apply_facts call deletes the
   seeded edge e(i) and re-inserts e(i-1), so every write is one
   single-edge delete plus one single-edge re-insert of the same shape.
   Moved edges are drawn from one tree level, so every write does the
   same amount of maintenance work. A read fetches both views with
   view_rows and checks them against a BFS closure and a direct two-hop
   join of the current edge set. Incremental, Runtime.resume_seminaive,
   the pool and the WAL do the work; this is the LFP loop of lfp_deep
   re-entered many times for small deltas. *)

module Session = Core.Session
module Graphgen = Workload.Graphgen
module V = Rdbms.Value

let depth = 11
let pool_pages = 4

(* tree level (root = 1) of the child end of every moved edge *)
let churn_level = 9

let rules = "anc(X, Y) :- edge(X, Y).\nanc(X, Y) :- edge(X, Z), anc(Z, Y).\nhop2(X, Y) :- edge(X, Z), edge(Z, Y).\n"

type st = {
  s : Session.t;
  dir : string;
  edges : (int * int) list;
  closure : Oracle.closure;
  movable : (int * int) array;
  seed : int;
  mutable hole : int * int;  (** the edge currently deleted *)
}

let row (a, b) = [ V.Int a; V.Int b ]

(* the edge moved by write w, never the current hole *)
let moved st w =
  let rng = Dkb_util.Rng.create ((st.seed * 1_000_003) + w) in
  let n = Array.length st.movable in
  let k = Dkb_util.Rng.int rng n in
  if st.movable.(k) = st.hole then st.movable.((k + 1) mod n) else st.movable.(k)

let setup ~seed =
  let dir = Rundir.fresh "view_churn" in
  let s = Session.create () in
  Rdbms.Engine.set_sanitize (Session.engine s) false;
  Results.fail_ok (Session.attach_storage s ~dir:(Filename.concat dir "heap") ~pool_pages ());
  Results.fail_ok (Session.attach_wal s (Filename.concat dir "wal.log"));
  let tree = Graphgen.full_binary_tree ~depth () in
  let edges = tree.Graphgen.t_edges in
  Results.fail_ok
    (Session.define_base s "edge" [ ("src", Rdbms.Datatype.TInt); ("dst", Rdbms.Datatype.TInt) ]
       ~indexes:[ "src" ] ());
  ignore (Results.fail_ok (Session.add_facts s "edge" (List.map row edges)));
  Results.fail_ok (Session.load_rules s rules);
  ignore (Results.fail_ok (Session.update_stored s ~clear:true ()));
  Session.set_maintenance s Core.Incremental.Auto;
  ignore (Results.fail_ok (Session.materialize s "anc"));
  ignore (Results.fail_ok (Session.materialize s "hop2"));
  let level = Graphgen.tree_nodes_at_level tree churn_level in
  let movable = Array.of_list (List.filter (fun (_, c) -> List.mem c level) edges) in
  let st = { s; dir; edges; closure = Oracle.closure edges; movable; seed; hole = (0, 0) } in
  (* open the first hole *)
  st.hole <- moved st 0;
  ignore (Results.fail_ok (Session.delete_facts s "edge" [ row st.hole ]));
  st

let teardown st =
  Rdbms.Engine.close_storage (Session.engine st.s);
  Option.iter Rdbms.Wal.close (Session.wal st.s);
  Rundir.remove st.dir

let write st w =
  let next = moved st w in
  let run () =
    Tracer.op "session.apply_facts" @@ fun () ->
    let r =
      Session.apply_facts st.s ~inserts:[ ("edge", row st.hole) ] ~deletes:[ ("edge", row next) ] ()
    in
    (match r with Ok rep -> Layers.maint rep | Error _ -> ());
    st.hole <- next;
    fun () ->
      match r with
      | Error msg -> Error msg
      | Ok rep ->
          if rep.Core.Incremental.base_deleted = 1 && rep.Core.Incremental.base_inserted = 1
             && rep.Core.Incremental.maintained && not rep.Core.Incremental.fallback
          then Ok ()
          else Error "apply_facts: unexpected base delta or fallback"
  in
  Loop.{ kind = Write; run }

let read st =
  let hole = st.hole in
  let run () =
    Tracer.op "session.view_rows" @@ fun () ->
    let anc = Session.view_rows st.s "anc" in
    let hop2 = Session.view_rows st.s "hop2" in
    fun () ->
      match (anc, hop2) with
      | Error msg, _ | _, Error msg -> Error msg
      | Ok anc, Ok hop2 ->
          let edges = List.filter (fun e -> e <> hole) st.edges in
          if not (Oracle.check_closure st.closure ~without:hole (Oracle.pairs anc)) then
            Error "anc view differs from the BFS closure"
          else if List.sort compare (Oracle.pairs hop2) <> Oracle.hop2 edges then
            Error "hop2 view differs from the two-hop join"
          else Ok ()
  in
  Loop.{ kind = Read; run }

(* op 2w is write w+1 (write 0 opened the hole at set-up), op 2w+1 a read *)
let op st i = if i mod 2 = 0 then write st ((i / 2) + 1) else read st

let workload =
  Loop.
    {
      setup;
      teardown;
      session = (fun st -> st.s);
      op;
      warmup = 10;
      trace_ops = 400;
    }
