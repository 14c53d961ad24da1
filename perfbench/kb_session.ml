(* kb_session: the paper's "typical session" (sec. 3.1).

   About 2,800 stored rules (Rulegen.chains, 400 clusters of 7) sit over
   a tiny EDB, so the Knowledge Manager's compiler does most of each
   goal (extract, readdict, semantic checks, codegen) and the LFP over
   eight facts is cheap. Reads are goals on seeded random clusters;
   every [write_every]-th operation adds one workspace rule and persists
   it with update_stored, so Update does all of each write. No paged
   storage and no WAL.

   Each write adds a shortcut c<k>l<a>(X,Y) :- c<k>l<b>(X,Y) with
   b > a + 1: new rule text (never deduplicated), a closure change for
   the cluster's upstream predicates, and the same answers, so the b0
   facts stay the oracle of every goal. *)

module Session = Core.Session
module V = Rdbms.Value

let clusters = 400
let per_cluster = 7
let write_every = 10

let base_facts = List.init 8 (fun i -> (i, i + 1))

(* the shortcut pairs (a, b) of one chain cluster *)
let shortcuts =
  let levels = List.init per_cluster (fun i -> i + 1) in
  Array.of_list
    (List.concat_map
       (fun a -> List.filter_map (fun b -> if b > a + 1 then Some (a, b) else None) levels)
       levels)

type st = { s : Session.t; seed : int }

let setup ~seed =
  let s = Session.create () in
  Rdbms.Engine.set_sanitize (Session.engine s) false;
  let rb = Workload.Rulegen.chains ~clusters ~rules_per_cluster:per_cluster () in
  Results.fail_ok
    (Session.define_base s rb.Workload.Rulegen.base_pred
       [ ("x", Rdbms.Datatype.TInt); ("y", Rdbms.Datatype.TInt) ]
       ~indexes:[ "x" ] ());
  ignore
    (Results.fail_ok
       (Session.add_facts s rb.Workload.Rulegen.base_pred
          (List.map (fun (a, b) -> [ V.Int a; V.Int b ]) base_facts)));
  List.iter
    (fun c -> Results.fail_ok (Core.Workspace.add_clause (Session.workspace s) c))
    rb.Workload.Rulegen.clauses;
  ignore (Results.fail_ok (Session.update_stored s ~clear:true ()));
  { s; seed }

let read st i =
  let rng = Dkb_util.Rng.create ((st.seed * 1_000_003) + i) in
  let k = 1 + Dkb_util.Rng.int rng clusters in
  let goal = Printf.sprintf "c%dl1(X, Y)" k in
  let run () =
    Tracer.op "session.query" @@ fun () ->
    let t0 = Tracer.now_ms () in
    match Session.query st.s goal with
    | Error msg -> fun () -> Error msg
    | Ok a ->
        Layers.query ~t0 a;
        fun () ->
          if List.sort compare (Oracle.pairs a.Session.run.Core.Runtime.rows) = base_facts then Ok ()
          else Error (Printf.sprintf "%s: answer differs from the b0 facts" goal)
  in
  Loop.{ kind = Read; run }

(* write w (0-based) adds a distinct shortcut for w < clusters * 15 *)
let write st w =
  let k = 1 + ((st.seed + (w * 7919)) mod clusters) in
  let a, b = shortcuts.(w / clusters mod Array.length shortcuts) in
  let rule = Printf.sprintf "c%dl%d(X, Y) :- c%dl%d(X, Y)." k a k b in
  let run () =
    Tracer.op "session.update_stored" @@ fun () ->
    match Session.add_rule st.s rule with
    | Error msg -> fun () -> Error msg
    | Ok () -> (
        match Session.update_stored st.s ~clear:true () with
        | Error msg -> fun () -> Error msg
        | Ok r ->
            Layers.update r;
            fun () ->
              if r.Core.Update.rules_stored = 1 then Ok ()
              else Error (Printf.sprintf "%s: %d rules stored" rule r.Core.Update.rules_stored))
  in
  Loop.{ kind = Write; run }

let op st i = if i mod write_every = write_every - 1 then write st (i / write_every) else read st i

let workload =
  Loop.
    {
      setup;
      teardown = (fun _ -> ());
      session = (fun st -> st.s);
      op;
      warmup = 2 * write_every;
      trace_ops = 50 * write_every;
    }
