(* In-memory span recorder for the traced run.

   A recorder belongs to one request (a query or a soak shard) and to the
   domain running it, so recording takes no lock; the traced run keeps
   every recorder's spans until the end and only then reduces them to
   per-layer self times. *)

type span = {
  id : int;  (** unique within its recorder *)
  parent : int option;  (** the enclosing span, [None] for a root *)
  name : string;
  req : int;  (** the query or shard the span belongs to *)
  start : float;  (** host seconds, monotonic clock *)
  stop : float;
}

type recorder = {
  req : int;
  enabled : bool;
  mutable next : int;
  mutable open_ : int list;
  mutable closed : span list;
}

let recorder ?(enabled = true) ~req () =
  { req; enabled; next = 0; open_ = []; closed = [] }

let with_span r name f =
  if not r.enabled then f ()
  else begin
    let id = r.next in
    r.next <- id + 1;
    let parent = match r.open_ with p :: _ -> Some p | [] -> None in
    r.open_ <- id :: r.open_;
    let start = Wcet.Clock.now_s () in
    let close () =
      let stop = Wcet.Clock.now_s () in
      r.open_ <- List.tl r.open_;
      r.closed <- { id; parent; name; req = r.req; start; stop } :: r.closed
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

let spans r = List.rev r.closed
let duration s = s.stop -. s.start

(* Self time of each span: its duration minus the durations of its direct
   children.  Spans must come from one recorder (ids are per recorder). *)
let self_times spans =
  let children = Hashtbl.create 16 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p ->
          let c = Option.value ~default:0.0 (Hashtbl.find_opt children p) in
          Hashtbl.replace children p (c +. duration s)
      | None -> ())
    spans;
  List.map
    (fun s ->
      let c = Option.value ~default:0.0 (Hashtbl.find_opt children s.id) in
      (s, duration s -. c))
    spans

(* Self time summed per span name over many recorders' spans. *)
let self_by_name span_lists =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun spans ->
      List.iter
        (fun (s, self) ->
          let t = Option.value ~default:0.0 (Hashtbl.find_opt tbl s.name) in
          Hashtbl.replace tbl s.name (t +. self))
        (self_times spans))
    span_lists;
  fun name -> Option.value ~default:0.0 (Hashtbl.find_opt tbl name)
