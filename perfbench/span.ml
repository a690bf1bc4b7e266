(* The traced run's span recorder. Spans are kept in memory (any domain
   may record) and written out once, as Chrome trace_event JSON, when the
   run ends. A span is the benchmark's own call into one module, or a
   boundary the program reports (a pass from the pass trace, a request's
   queue and execution time from its response). *)

type span = {
  id : int;
  name : string;
  start : float;  (** Util.monotime seconds. *)
  stop : float;
  parent : int;  (** 0 for a root span. *)
  op : int;  (** The job or request this span belongs to. *)
}

type t = { enabled : bool; mu : Mutex.t; mutable next : int; mutable spans : span list }

let create ~enabled = { enabled; mu = Mutex.create (); next = 1; spans = [] }
let enabled t = t.enabled
let now = Stencilflow.Util.monotime

let record t ?(parent = 0) ~op name ~start ~stop =
  if not t.enabled then 0
  else begin
    Mutex.lock t.mu;
    let id = t.next in
    t.next <- id + 1;
    t.spans <- { id; name; start; stop; parent; op } :: t.spans;
    Mutex.unlock t.mu;
    id
  end

(* Reserve an id for a span whose children are recorded before it ends. *)
let open_ t =
  if not t.enabled then 0
  else begin
    Mutex.lock t.mu;
    let id = t.next in
    t.next <- id + 1;
    Mutex.unlock t.mu;
    id
  end

let close t id ?(parent = 0) ~op name ~start ~stop =
  if t.enabled then begin
    Mutex.lock t.mu;
    t.spans <- { id; name; start; stop; parent; op } :: t.spans;
    Mutex.unlock t.mu
  end

(* Run [f] inside a span; [f] receives the span's id for its children. *)
let within t ?parent ~op name f =
  if not t.enabled then f 0
  else
    let id = open_ t in
    let start = now () in
    let r = f id in
    close t id ?parent ~op name ~start ~stop:(now ());
    r

let spans t = List.rev t.spans
let named t name = List.filter (fun s -> s.name = name) (spans t)
let total_s t name = List.fold_left (fun acc s -> acc +. (s.stop -. s.start)) 0. (named t name)
let count t name = List.length (named t name)

(* Mean milliseconds per span of this name (0 when there is none). *)
let mean_ms t name =
  match count t name with 0 -> 0. | n -> 1000. *. total_s t name /. Float.of_int n

(* Self time per span name: each span's duration minus the part of its
   interval its children cover (children's union, clipped to the
   parent). Returned as (name, spans, total ms, self ms), heaviest self
   time first. *)
let self_times t =
  let all = spans t in
  let children = Hashtbl.create 64 in
  List.iter (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent s) all;
  let covered s =
    let kids =
      Hashtbl.find_all children s.id
      |> List.map (fun c -> (Float.max s.start c.start, Float.min s.stop c.stop))
      |> List.filter (fun (a, b) -> b > a)
      |> List.sort compare
    in
    let total, _ =
      List.fold_left
        (fun (acc, reach) (a, b) ->
          let a = Float.max a reach in
          if b > a then (acc +. (b -. a), b) else (acc, reach))
        (0., neg_infinity) kids
    in
    total
  in
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let n, tot, self = Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt by_name s.name) in
      let d = s.stop -. s.start in
      Hashtbl.replace by_name s.name (n + 1, tot +. d, self +. (d -. covered s)))
    all;
  Hashtbl.fold (fun name (n, tot, self) acc -> (name, n, 1000. *. tot, 1000. *. self) :: acc) by_name []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> Float.compare b a)

(* Chrome trace_event JSON: one complete ("X") event per span, on one
   track per job or request. *)
let write t path =
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity (spans t) in
  let us x = Float.round ((x -. t0) *. 1e6) in
  let event s =
    Printf.sprintf
      "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.0f,\"dur\":%.0f,\"args\":{\"id\":%d,\"parent\":%d}}"
      s.name s.op (us s.start) (us s.stop -. us s.start) s.id s.parent
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\"traceEvents\":[\n";
      output_string oc (String.concat ",\n" (List.map event (spans t)));
      output_string oc "\n]}\n")
