(* Spans for the traced run, recorded from the benchmark's own code.

   One root span per operation wraps the public call. Child spans come
   from hooks the program already exposes: engine statement begin/end
   events (Engine.set_trace_hook), LFP iteration callbacks
   (Session.query ~on_iteration), WAL appends (the engine's commit hook,
   re-installed around Wal.append), and the phase totals the program
   returns (Compiler / Runtime / Update / Incremental reports), which
   become spans ending where the call ended. After each operation its
   spans are nested by interval containment. Spans stay in memory until
   the run ends, when each layer's self time (its span durations minus
   the part their child spans cover) and inclusive time are summed. *)

type span = {
  id : int;
  name : string;
  layer : string;
  op : int;
  t0 : float;
  mutable t1 : float;
  mutable parent : int;
  approx : bool;  (** placed from a duration, not clocked in real time *)
}

let on = ref false
let now_ms = Results.now_ms
let spans : span list ref = ref []
let op_spans : span list ref = ref [] (* spans of the operation in flight *)
let next_id = ref 0
let op_id = ref 0
let open_stack : span list ref = ref []

let make ?(approx = false) ~name ~layer ~t0 ~t1 () =
  incr next_id;
  let s = { id = !next_id; name; layer; op = !op_id; t0; t1; parent = -1; approx } in
  op_spans := s :: !op_spans;
  s

let open_span name layer =
  let t = now_ms () in
  let s = make ~name ~layer ~t0:t ~t1:t () in
  open_stack := s :: !open_stack;
  s

let close_span s =
  s.t1 <- now_ms ();
  match !open_stack with top :: rest when top == s -> open_stack := rest | _ -> ()

(** A span known after the fact: a phase total placed where the call
    ran it, or an LFP iteration reported when it finished. *)
let interval ~name ~layer ~t0 ~t1 = if !on then ignore (make ~approx:true ~name ~layer ~t0 ~t1 ())

let ended ~name ~layer ms =
  let t1 = now_ms () in
  interval ~name ~layer ~t0:(t1 -. ms) ~t1

(** A real-time span around [f]. *)
let span name layer f =
  if not !on then f ()
  else
    let s = open_span name layer in
    Fun.protect ~finally:(fun () -> close_span s) f

(* Containment involving a placed span tolerates the few microseconds
   between a phase total's real start and the start inferred from its
   duration; clocked spans nest exactly. *)
let eps = 0.05

let nest op =
  let sorted =
    List.sort
      (fun a b ->
        let c = compare a.t0 b.t0 in
        if c <> 0 then c else compare (b.t1 -. b.t0) (a.t1 -. a.t0))
      op
  in
  (* the root first, whatever the float noise *)
  let sorted =
    match List.find_opt (fun s -> s.layer = "session") op with
    | Some root -> root :: List.filter (fun s -> s != root) sorted
    | None -> sorted
  in
  let stack = ref [] in
  List.iter
    (fun s ->
      let contains p =
        let e = if p.approx || s.approx then eps else 0.0 in
        p.t0 -. e <= s.t0 && s.t1 <= p.t1 +. e
      in
      let rec pop () =
        match !stack with p :: rest when not (contains p) -> stack := rest; pop () | _ -> ()
      in
      pop ();
      (match !stack with p :: _ -> s.parent <- p.id | [] -> s.parent <- -1);
      stack := s :: !stack)
    sorted

(** Run one operation under a root span named after the public call. *)
let op name f =
  if not !on then f ()
  else begin
    incr op_id;
    op_spans := [];
    let root = open_span name "session" in
    Fun.protect
      ~finally:(fun () ->
        close_span root;
        nest !op_spans;
        spans := List.rev_append !op_spans !spans;
        op_spans := [])
      f
  end

(** Statement spans from the engine's trace hook. *)
let engine_hook = function
  | Rdbms.Engine.Tr_stmt_begin _ -> ignore (open_span "stmt" "engine")
  | Rdbms.Engine.Tr_stmt_end _ -> (
      match !open_stack with top :: _ when top.layer = "engine" -> close_span top | _ -> ())
  | Rdbms.Engine.Tr_plan _ -> ()

(** Re-install the engine's commit hook so each WAL append is a span. *)
let wrap_wal session =
  match Core.Session.wal session with
  | None -> ()
  | Some wal ->
      Rdbms.Engine.set_commit_hook (Core.Session.engine session)
        (Some (fun script -> span "append" "wal" (fun () -> Rdbms.Wal.append wal script)))

let instrument session =
  Rdbms.Engine.set_trace_hook (Core.Session.engine session) (Some engine_hook);
  wrap_wal session

(* ------------------------------------------------------------------ *)
(* Summary *)

(** Per layer: (self ms, inclusive ms); plus total root time and the
    span count. Inclusive time counts a span only when no ancestor is in
    the same layer, so nested iterations are not counted twice. *)
let summary () =
  let by_id = Hashtbl.create 4096 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) !spans;
  let child_ms = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ms s.parent
          (Option.value (Hashtbl.find_opt child_ms s.parent) ~default:0.0 +. (s.t1 -. s.t0)))
    !spans;
  let self = Hashtbl.create 16 and incl = Hashtbl.create 16 in
  let bump tbl k v = Hashtbl.replace tbl k (Option.value (Hashtbl.find_opt tbl k) ~default:0.0 +. v) in
  let rec outer_same s p =
    if p < 0 then true
    else
      let ps = Hashtbl.find by_id p in
      if ps.layer = s.layer then false else outer_same s ps.parent
  in
  let root_ms = ref 0.0 in
  List.iter
    (fun s ->
      let dur = s.t1 -. s.t0 in
      if s.parent < 0 then root_ms := !root_ms +. dur;
      let c = Option.value (Hashtbl.find_opt child_ms s.id) ~default:0.0 in
      bump self s.layer (Float.max 0.0 (dur -. c));
      if outer_same s s.parent then bump incl s.layer dur)
    !spans;
  let get tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0.0 in
  (List.map (fun l -> (l, get self l, get incl l)) Results.layer_shares, !root_ms, List.length !spans)

(** Record the share metrics and print the layer table. *)
let report () =
  let layers, root_ms, n = summary () in
  Printf.printf "\n  layer        self_ms   self%%   incl_ms   incl%%\n";
  List.iter
    (fun (l, s, i) ->
      let ps = 100.0 *. Results.ratio s root_ms and pi = 100.0 *. Results.ratio i root_ms in
      Printf.printf "  %-10s %9.1f %6.1f %9.1f %6.1f\n" l s ps i pi;
      Results.set ("share_self." ^ l) ps ~n:!op_id;
      Results.set ("share_incl." ^ l) pi ~n:!op_id)
    layers;
  List.iter (fun (l, _, i) -> if l = "engine" then Results.set "engine.stmt_ms" i) layers;
  Results.set "trace.spans" (float_of_int n);
  Results.set "trace.ops" (float_of_int !op_id)
