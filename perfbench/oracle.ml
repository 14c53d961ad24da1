(* Answer oracles computed directly from the generated inputs, never by
   the compiler or engine under test: BFS closure for ancestor/tc goals
   and the maintained anc view, a two-hop join for hop2. *)

let succ_table edges =
  let succ = Hashtbl.create 1024 in
  List.iter (fun (a, b) -> Hashtbl.add succ a b) edges;
  succ

(* BFS: the set of nodes reachable from [src] by one or more edges *)
let reach_set next src =
  let seen = Hashtbl.create 256 in
  let rec go = function
    | [] -> ()
    | v :: rest ->
        let fresh =
          List.filter
            (fun w ->
              if Hashtbl.mem seen w then false
              else begin
                Hashtbl.replace seen w ();
                true
              end)
            (next v)
        in
        go (List.rev_append fresh rest)
  in
  go [ src ];
  seen

(** Nodes reachable from [src] by one or more edges, sorted. *)
let reachable succ src =
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) (reach_set (Hashtbl.find_all succ) src) [])

(** The closure of an edge list, kept as one BFS reach set per source,
    so it can be checked against after deleting an edge by redoing the
    BFS only from the sources that reached the deleted edge. *)
type closure = {
  c_succ : (int, int) Hashtbl.t;
  c_reach : (int, (int, unit) Hashtbl.t) Hashtbl.t;
}

let closure edges =
  let succ = succ_table edges in
  let reach = Hashtbl.create 1024 in
  List.iter
    (fun (a, _) ->
      if not (Hashtbl.mem reach a) then Hashtbl.replace reach a (reach_set (Hashtbl.find_all succ) a))
    edges;
  { c_succ = succ; c_reach = reach }

(** [check_closure c ~without:(p, q) pairs]: do [pairs] equal, as a set
    without duplicates, the closure of the edges minus edge p -> q? *)
let check_closure c ~without:(p, q) pairs =
  let next v = List.filter (fun w -> (v, w) <> (p, q)) (Hashtbl.find_all c.c_succ v) in
  let current = Hashtbl.create 16 in
  Hashtbl.iter
    (fun x r ->
      let r = if x = p || Hashtbl.mem r p then reach_set next x else r in
      if Hashtbl.length r > 0 then Hashtbl.replace current x r)
    c.c_reach;
  let expected = Hashtbl.fold (fun _ r n -> n + Hashtbl.length r) current 0 in
  let seen = Hashtbl.create (2 * expected) in
  List.length pairs = expected
  && List.for_all
       (fun (x, y) ->
         (not (Hashtbl.mem seen (x, y)))
         && (Hashtbl.replace seen (x, y) ();
             match Hashtbl.find_opt current x with Some r -> Hashtbl.mem r y | None -> false))
       pairs

(** Distinct (x, z) with x -> y -> z, sorted. *)
let hop2 edges =
  let succ = succ_table edges in
  List.sort_uniq compare
    (List.concat_map
       (fun (x, y) -> List.map (fun z -> (x, z)) (Hashtbl.find_all succ y))
       edges)

let int_of_value = function
  | Rdbms.Value.Int i -> i
  | v -> failwith ("oracle: non-integer value " ^ Rdbms.Value.to_string v)

(** Rows of a binary integer relation as pairs, in row order. *)
let pairs rows = List.map (fun (r : Rdbms.Tuple.t) -> (int_of_value r.(0), int_of_value r.(1))) rows

(** The last column of goal answer rows (the free variable W), sorted. *)
let last_column rows =
  List.sort compare
    (List.map (fun (r : Rdbms.Tuple.t) -> int_of_value r.(Array.length r - 1)) rows)
