(* lfp_deep: magic-sets goals in memory on the compiled backend.

   Runtime + Engine do nearly all the work (compile is ~0.3 ms of a goal
   that runs for tens to hundreds of milliseconds). On the tree every
   candidate tuple is new; on the cyclic graph most are duplicates, so a
   change to the LFP loop meets both cases. Incremental maintenance,
   the WAL, the buffer pool, Update and the server are bypassed.

   Goals come in blocks of 20 with a fixed cost profile, so the
   percentiles sit inside one goal class instead of on a boundary
   between two: 14 ancestor goals on a depth-14 full binary tree, from
   nodes 1-6 levels below the root (few deep, most shallow: levels
   6,6,5,5,4,4,3, then 2,2,2,2 and 1,1,1), and 6 tc goals from
   entry-layer nodes of a 20x20 layered cyclic graph. The seed picks
   the nodes; subtrees of one level are isomorphic, so it does not
   change a goal's cost. Between goals the client inserts isolated
   parent facts (point writes on the 16K-row indexed relation); they
   share no node with the tree and leave every answer unchanged. *)

module Session = Core.Session
module Graphgen = Workload.Graphgen
module V = Rdbms.Value

let depth = 14

(* tree levels below the root of the ancestor goals in one block *)
let block_levels = [| 6; 6; 5; 5; 4; 4; 3; 2; 2; 2; 2; 1; 1; 1 |]
let block = 20
let writes_per_goal = 10

(* the cyclic graph's shape is fixed (its cost varies several-fold with
   the placement of the back edges); the run seed picks the goals *)
let graph_seed = 1
let first_graph_node = 100_000

type st = {
  s : Session.t;
  tree : Graphgen.tree;
  tree_succ : (int, int) Hashtbl.t;
  graph_succ : (int, int) Hashtbl.t;
  entry : int array;
  seed : int;
}

let options = { Session.default_options with optimize = Core.Compiler.Opt_on }

let setup ~seed =
  let s = Session.create () in
  Rdbms.Engine.set_sanitize (Session.engine s) false;
  let tree = Graphgen.full_binary_tree ~depth () in
  let rng = Dkb_util.Rng.create graph_seed in
  let g =
    Graphgen.cyclic ~rng ~path_length:20 ~width:20 ~fan_out:2 ~cycles:8
      ~first_node:first_graph_node ()
  in
  Results.fail_ok (Workload.Queries.setup_parent s tree.Graphgen.t_edges);
  Results.fail_ok (Workload.Queries.setup_edge s g.Graphgen.c_edges);
  Results.fail_ok (Session.load_rules s Workload.Queries.ancestor_rules);
  Results.fail_ok (Session.load_rules s Workload.Queries.tc_rules);
  ignore (Results.fail_ok (Session.update_stored s ~clear:true ()));
  {
    s;
    tree;
    tree_succ = Oracle.succ_table tree.Graphgen.t_edges;
    graph_succ = Oracle.succ_table g.Graphgen.c_edges;
    entry = Array.of_list g.Graphgen.c_entry;
    seed;
  }

(* One LFP goal; its phase totals become per-layer metrics and the
   answer's W column is checked against the BFS oracle [expect]. *)
let goal st atom ~expect =
  let run () =
    Tracer.op "session.query" @@ fun () ->
    let t0 = Tracer.now_ms () in
    let on_iteration ip = Tracer.ended ~name:"iteration" ~layer:"runtime" ip.Core.Runtime.ip_ms in
    match Session.query_goal st.s ~options ~on_iteration atom with
    | Error msg -> fun () -> Error msg
    | Ok a ->
        Layers.query ~t0 a;
        fun () ->
          let got = Oracle.last_column a.Session.run.Core.Runtime.rows in
          if got = expect () then Ok ()
          else
            Error
              (Printf.sprintf "%s: %d rows, oracle %d" (Datalog.Ast.atom_to_string atom)
                 (List.length got) (List.length (expect ())))
  in
  Loop.{ kind = Read; run }

let read st k =
  let rng = Dkb_util.Rng.create ((st.seed * 1_000_003) + k) in
  let slot = k mod block in
  if slot < Array.length block_levels then
    let nodes = Array.of_list (Graphgen.tree_nodes_at_level st.tree (block_levels.(slot) + 1)) in
    let n = Dkb_util.Rng.pick rng nodes in
    goal st (Workload.Queries.ancestor_goal n) ~expect:(fun () -> Oracle.reachable st.tree_succ n)
  else
    let n = Dkb_util.Rng.pick rng st.entry in
    goal st (Workload.Queries.tc_goal_from n) ~expect:(fun () -> Oracle.reachable st.graph_succ n)

(* isolated facts: node ids far above both graphs *)
let write st i =
  let a = 10_000_000 + i in
  let run () =
    let r =
      Tracer.op "session.add_fact" (fun () ->
          Session.add_fact st.s "parent" [ V.Int a; V.Int (a + 5_000_000) ])
    in
    fun () -> r
  in
  Loop.{ kind = Write; run }

(* op i: every (writes_per_goal + 1)-th op is a goal *)
let op st i =
  let k = i / (writes_per_goal + 1) in
  if i mod (writes_per_goal + 1) = 0 then read st k else write st i

let workload =
  Loop.
    {
      setup;
      teardown = (fun _ -> ());
      session = (fun st -> st.s);
      op;
      warmup = 2 * (writes_per_goal + 1);
      trace_ops = block * (writes_per_goal + 1);
    }
