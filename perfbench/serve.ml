(* serve-warm and serve-compile: Service.serve_loop over pipes with two
   pool workers, driven by one client on the calling domain that waits
   for each answer before sending its next request (a closed loop, like
   a design-space exploration caller). One request at a time, because on
   a shared host two requests in flight need two cores at once, and the
   figures then follow the hypervisor's steal time more than the
   program. The loop's reader, its workers, its writer and the client
   share the host's cores.

   Latency runs from just before the client writes a request line to
   when it has read the matching response. *)

open Stencilflow

let now = Harness.now
let serve_jobs = 2
let outstanding = 1

(* Work directories live in the checkout, under the benchmark's output
   directory, and are removed when the run ends. *)
let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let fresh_dir =
  let n = ref 0 in
  fun tag ->
    incr n;
    let d = Printf.sprintf ".perfbench-out/%s-%d-%d" tag (Unix.getpid ()) !n in
    if Sys.file_exists d then rm_rf d;
    d

(* Blob files and bytes under a store directory. *)
let rec store_usage dir =
  if not (Sys.file_exists dir) then (0, 0)
  else
    Array.fold_left
      (fun (n, b) f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then
          let n', b' = store_usage p in
          (n + n', b + b')
        else if Filename.check_suffix p ".blob" then (n + 1, b + (Unix.stat p).Unix.st_size)
        else (n, b))
      (0, 0) (Sys.readdir dir)

(* What the service reports through its hooks: simulate-pass seconds
   (for the simulator figures) and, when traced, every pass trace tagged
   with the request it belongs to and when it was reported. *)
type hooks = {
  mu : Mutex.t;
  mutable sim_seconds : float;
  mutable traces : (int * float * Pass_manager.trace) list;
}

let hooks () = { mu = Mutex.create (); sim_seconds = 0.; traces = [] }
let current = Domain.DLS.new_key (fun () -> -1)

let service ~traced ?store_dir ~cache_capacity hooks =
  let on_trace ~verb:_ trace =
    let stop = now () in
    Mutex.lock hooks.mu;
    List.iter
      (fun (t : Pass_manager.timing) ->
        if t.Pass_manager.pass = "simulate" && not t.Pass_manager.cached then
          hooks.sim_seconds <- hooks.sim_seconds +. t.Pass_manager.seconds)
      trace;
    if traced then hooks.traces <- (Domain.DLS.get current, stop, trace) :: hooks.traces;
    Mutex.unlock hooks.mu
  in
  (* The pool calls [disturb] with the request's id as it starts
     executing it, on the worker that runs it. For a probe request it
     runs the host probe there (see {!probe}); traced, it ties the pass
     trace reported later on the same worker to its request. *)
  let disturb ~id =
    match id with
    | Some (Json.String "probe") -> Calib.run ()
    | Some (Json.Int n) when traced -> Domain.DLS.set current n
    | _ -> ()
  in
  Service.create ~cache_capacity ?store_dir ~on_trace ~serve_jobs ~disturb ()

type session = { svc : Service.t; oc : out_channel; ic : in_channel; server : unit Domain.t }

let start svc =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let server =
    Domain.spawn (fun () ->
        let ic = Unix.in_channel_of_descr req_r and oc = Unix.out_channel_of_descr resp_w in
        Service.serve_loop svc ic oc;
        close_out oc;
        close_in ic)
  in
  { svc; oc = Unix.out_channel_of_descr req_w; ic = Unix.in_channel_of_descr resp_r; server }

(* End of input stops the loop once every admitted request is answered. *)
let stop s =
  close_out s.oc;
  (try
     while true do
       ignore (input_line s.ic)
     done
   with End_of_file -> ());
  close_in s.ic;
  Domain.join s.server

(* Run the host probe (see {!Calib}) on a pool worker, where the
   requests execute: a [cache-stats] request, which the pool runs
   without touching the cache, with the id [disturb] looks for. Only
   called with no request in flight, so the next line is its answer. *)
let probe s =
  output_string s.oc {|{"id":"probe","verb":"cache-stats"}|};
  output_char s.oc '\n';
  flush s.oc;
  ignore (input_line s.ic)

(* The first index at or after [from] where [sub] occurs in [s]. *)
let find s ~from sub =
  let n = String.length s and m = String.length sub in
  let rec at i k = k = m || (s.[i + k] = sub.[k] && at i (k + 1)) in
  let rec go i = if i + m > n then None else if at i 0 then Some i else go (i + 1) in
  go from

let number_after s key =
  match find s ~from:0 key with
  | Some i ->
      let at = i + String.length key in
      Scanf.sscanf (String.sub s at (min 32 (String.length s - at))) "%f" Fun.id
  | None -> 0.

type exchange = {
  id : int;
  sent : float;
  received : float;
  ok : bool;
  line : string;  (** Kept only when asked for. *)
  queue_s : float;  (** From the response's timing (traced runs). *)
  exec_s : float;
  rejected : bool;  (** Refused for overload (SF0903). *)
}

(* Every response line starts with the client's id: {"id":N, *)
let response_id line = Scanf.sscanf line "{\"id\":%d" Fun.id

(* Keep [outstanding] requests in flight until [next] runs dry or
   [deadline] passes, then collect the stragglers. [check id line]
   judges each response as it arrives; the line itself is kept only
   with [keep], so a long run does not grow the process. *)
let closed_loop ?(keep = true) ?(timing = false) s ~deadline ~next
    ~check =
  let sent = Hashtbl.create 1024 and results = ref [] and in_flight = ref 0 in
  let send () =
    match next () with
    | None -> ()
    | Some (id, line) ->
        if !in_flight = 0 && Calib.due () then probe s;
        Hashtbl.replace sent id (now ());
        output_string s.oc line;
        output_char s.oc '\n';
        flush s.oc;
        incr in_flight
  in
  for _ = 1 to outstanding do
    send ()
  done;
  while !in_flight > 0 do
    let line = input_line s.ic in
    let received = now () in
    let id = response_id line in
    decr in_flight;
    let sent_at = Hashtbl.find sent id in
    Hashtbl.remove sent id;
    let queue_s, exec_s, rejected =
      if timing then
        ( number_after line "\"queue_seconds\":",
          number_after line "\"exec_seconds\":",
          find line ~from:0 "\"code\":\"SF0903\"" <> None )
      else (0., 0., false)
    in
    let ok = check id line in
    results :=
      { id; sent = sent_at; received; ok; line = (if keep then line else ""); queue_s; exec_s; rejected }
      :: !results;
    if received < deadline then send ()
  done;
  List.rev !results

let of_list items =
  let rest = ref items in
  fun () ->
    match !rest with
    | [] -> None
    | x :: tl ->
        rest := tl;
        Some x

let field path json = List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some json) path
let int_field path json = Option.value ~default:0 (Option.bind (field path json) Json.int_opt)
let parse line = match Json.parse line with Ok j -> Some j | Error _ -> None

(* A response fails when it is not ok or carries an error diagnostic. *)
let response_ok line =
  match parse line with
  | None -> false
  | Some json ->
      field [ "ok" ] json = Some (Json.Bool true)
      && not
           (List.exists
              (fun d -> Option.bind (Json.member "severity" d) Json.string_opt = Some "error")
              (Option.value ~default:[] (Option.bind (field [ "diagnostics" ] json) Json.list_opt)))

(* The timed phase's layer view: a span per request with its queue and
   execution time (from the response) and the passes it executed (from
   its pass trace), the service's timing medians and the cache's
   counter deltas. *)
let trace_layers ~layers ~hooks ~bytes ~stats0 ~stats1 exchanges =
  let traces = Hashtbl.create 256 in
  List.iter (fun (id, stop, tr) -> Hashtbl.replace traces id (stop, tr)) hooks.traces;
  let spans = layers.Layers.spans in
  List.iter
    (fun e ->
      if e.rejected then Layers.add layers "service.rejected" 1.;
      let root = Span.open_ spans in
      let x_stop, tr =
        match Hashtbl.find_opt traces e.id with
        | Some (stop, tr) -> (stop, tr)
        | None -> (e.received, [])
      in
      let x_start = x_stop -. e.exec_s in
      let exec_span =
        Span.record spans ~parent:root ~op:e.id "service.exec" ~start:x_start ~stop:x_stop
      in
      ignore
        (Span.record spans ~parent:root ~op:e.id "service.queue" ~start:(x_start -. e.queue_s)
           ~stop:x_start);
      Layers.trace layers ~op:e.id ~parent:exec_span ~stop:x_stop tr;
      if
        List.exists
          (fun (t : Pass_manager.timing) ->
            t.Pass_manager.pass = "load-string" && not t.Pass_manager.cached)
          tr
      then Layers.add layers "frontend.bytes" (Float.of_int (bytes e.id));
      Span.close spans root ~op:e.id "serve.request" ~start:e.sent ~stop:e.received)
    exchanges;
  let ms f = Stats.median (List.map (fun e -> 1000. *. f e) exchanges) in
  Layers.set layers "service.queue_ms_p50" (ms (fun e -> e.queue_s));
  Layers.set layers "service.exec_ms_p50" (ms (fun e -> e.exec_s));
  Layers.set layers "service.overhead_ms_p50" (ms (fun e -> e.received -. e.sent -. e.exec_s));
  let delta f = Float.of_int (f stats1 - f stats0) in
  Layers.set layers "cache.hits" (delta (fun s -> s.Cache.hits));
  Layers.set layers "cache.misses" (delta (fun s -> s.Cache.misses));
  Layers.set layers "cache.joined" (delta (fun s -> s.Cache.joined));
  Layers.set layers "cache.evictions" (delta (fun s -> s.Cache.evictions))

(* A timed phase's operations for {!Harness.end_to_end}, each with its
   kind, and its failure count. *)
let timed_ops ~kind exchanges =
  ( List.map
      (fun e ->
        {
          Harness.kind = kind e.id;
          start = e.sent;
          seconds = (if e.ok then Some (e.received -. e.sent) else None);
        })
      exchanges,
    List.length (List.filter (fun e -> not e.ok) exchanges) )

let shape_context =
  [
    ( "shape",
      Printf.sprintf "closed loop, 1 client, %d request(s) outstanding, serve_jobs %d" outstanding
        serve_jobs );
  ]

(* Send simulate requests one at a time, each after a host probe, so
   each simulation has a worker and a core to itself. [points] are
   (id, kind, point) triples. Returns each simulation for
   {!Harness.sim_rate}, the summed simulated cycles and the exchanges. *)
let simulate_alone s hooks points ~failed =
  let one (id, kind, (p : Gen.point)) =
    probe s;
    Mutex.lock hooks.mu;
    hooks.sim_seconds <- 0.;
    Mutex.unlock hooks.mu;
    let e =
      List.hd
        (closed_loop s ~deadline:infinity
           ~next:(of_list [ (id, Gen.with_id id p.Gen.line) ])
           ~check:(fun _ line -> response_ok line))
    in
    if not e.ok then incr failed;
    Mutex.lock hooks.mu;
    let sim = (kind, p.Gen.stage_cells, Calib.scale ~at:e.sent hooks.sim_seconds) in
    Mutex.unlock hooks.mu;
    let cycles = Option.fold ~none:0 ~some:(int_field [ "result"; "simulation"; "cycles" ]) (parse e.line) in
    (sim, cycles, e)
  in
  let runs = List.map one points in
  ( List.map (fun (r, _, _) -> r) runs,
    List.fold_left (fun acc (_, c, _) -> acc + c) 0 runs,
    List.map (fun (_, _, e) -> e) runs )

(* The response from ["ok":] up to its executed-pass count, with that
   count set to 0: what a cached replay of the same request answers. *)
let replay_signature line =
  match (find line ~from:0 "\"ok\":", find line ~from:0 "\"passes\":{\"executed\":") with
  | Some i, Some j -> Some (String.sub line i (j - i) ^ "\"passes\":{\"executed\":0,")
  | _ -> None

let replays line signature =
  match (find line ~from:0 "\"ok\":", signature) with
  | Some i, Some sub ->
      i + String.length sub <= String.length line && String.sub line i (String.length sub) = sub
  | _ -> false

let warm ~seed ~seconds ~layers =
  let traced = Span.enabled layers.Layers.spans in
  let hooks = hooks () in
  let setup_failed = ref 0 and figures = ref [] in
  let (session, lines, primed), setup_s =
    Harness.setup ~reps:3
      ~dispose:(fun (s, _, _) -> stop s)
      (fun () ->
        let grid = Array.of_list (Gen.warm_grid ~seed) in
        let s = start (service ~traced ~cache_capacity:4096 hooks) in
        let sims, others =
          List.partition (fun (_, (p : Gen.point)) -> p.Gen.simulate) (List.mapi (fun i p -> (i, p)) (Array.to_list grid))
        in
        let rates, cycles, sim_responses =
          simulate_alone s hooks (List.map (fun (i, p) -> (i, i, p)) sims) ~failed:setup_failed
        in
        let responses =
          closed_loop s ~deadline:infinity
            ~next:(of_list (List.map (fun (i, (p : Gen.point)) -> (i, Gen.with_id i p.Gen.line)) others))
            ~check:(fun _ line -> response_ok line)
        in
        let primed = Array.make (Array.length grid) None in
        List.iter
          (fun e -> if e.ok then primed.(e.id) <- replay_signature e.line else incr setup_failed)
          (responses @ sim_responses);
        figures := (rates, cycles) :: !figures;
        (s, Array.map (fun (p : Gen.point) -> p.Gen.line) grid, primed))
  in
  hooks.traces <- [];
  let stats0 = Cache.stats (Service.cache session.svc) in
  let next_point = Gen.zipf_stream ~seed ~points:(Array.length lines) in
  let point_of = Hashtbl.create 65536 and next_id = ref (Array.length lines) in
  let next () =
    let p = next_point () and id = !next_id in
    incr next_id;
    Hashtbl.replace point_of id p;
    Some (id, Gen.with_id id lines.(p))
  in
  let t_start = now () in
  let deadline = t_start +. seconds in
  (* A timed request must replay every pass from the cache and answer
     exactly what its priming request answered. *)
  let exchanges =
    closed_loop ~keep:false ~timing:traced session ~deadline ~next ~check:(fun id line ->
        replays line primed.(Hashtbl.find point_of id))
  in
  let stats1 = Cache.stats (Service.cache session.svc) in
  stop session;
  let ops, failed = timed_ops ~kind:(Hashtbl.find point_of) exchanges in
  let cycles = List.map snd !figures in
  let e2e, ctx =
    Harness.end_to_end ~setup_s ~ops ~tail_cap:99.
      ~sim_rate:(Harness.sim_rate (List.concat_map fst !figures))
      ~design_cycles:(Float.of_int (List.hd cycles))
  in
  if traced then
    trace_layers ~layers ~hooks ~stats0 ~stats1
      ~bytes:(fun id -> String.length lines.(Hashtbl.find point_of id))
      exchanges;
  let failed = failed + !setup_failed in
  {
    Harness.attempted = List.length exchanges + !setup_failed;
    failed;
    correct = failed = 0 && List.for_all (( = ) (List.hd cycles)) cycles;
    end_to_end = e2e;
    context = ctx @ shape_context @ [ ("grid_points", string_of_int (Array.length lines)) ];
    tables = [];
  }

(* The response without its [seq] and [timing] fields, which depend on
   scheduling rather than on the request. *)
let normalized line =
  match parse line with
  | Some (Json.Obj fields) ->
      Json.to_string ~minify:true
        (Json.Obj (List.filter (fun (k, _) -> k <> "seq" && k <> "timing") fields))
  | _ -> line

let pool_size = 256
let cache_capacity = 64
let samples = 12

(* The fewest rounds a run makes: enough requests that p95 has ten
   beyond it whatever the host's speed, so the tail stays on one
   percentile. [design_cycles] sums the simulated cycles of the first
   this many simulator probes. *)
let min_rounds = 24

let compile ~seed ~seconds ~layers =
  let traced = Span.enabled layers.Layers.spans in
  let hooks = hooks () in
  let dirs = ref [] in
  Fun.protect ~finally:(fun () -> List.iter rm_rf (List.filter Sys.file_exists !dirs))
  @@ fun () ->
  let (session, dir, pool), setup_s =
    Harness.setup ~reps:Oneshot.setup_reps
      ~dispose:(fun (s, _, _) -> stop s)
      (fun () ->
        let dir = fresh_dir "store" in
        dirs := dir :: !dirs;
        let pool = Array.init pool_size (Gen.cold_request ~seed) in
        (start (service ~traced ~store_dir:dir ~cache_capacity hooks), dir, pool))
  in
  hooks.traces <- [];
  let request i = if i < pool_size then pool.(i) else Gen.cold_request ~seed i in
  let stats0 = Cache.stats (Service.cache session.svc) in
  let blobs0, bytes0 = store_usage dir in
  (* The timed phase runs whole rounds, one request of every stratum in
     turn, so every stratum is sampled as often as every other. The
     stream itself runs no simulation: the workload's simulator figures
     come from a distinct simulate request of one shape sent after each
     round, so they sample the whole run; they are not timed operations. *)
  let deadline = now () +. seconds in
  let exchanges = ref [] and sims = ref [] and cycles = ref [] and probe_failed = ref 0 in
  let rounds = ref 0 in
  while !rounds < min_rounds || now () < deadline do
    let ids = List.init Gen.cold_strata (fun k -> (!rounds * Gen.cold_strata) + k) in
    exchanges :=
      List.rev_append
        (closed_loop ~timing:traced session ~deadline:infinity
           ~next:(of_list (List.map (fun id -> (id, Gen.with_id id (request id))) ids))
           ~check:(fun _ line -> response_ok line))
        !exchanges;
    let sim, c, _ =
      simulate_alone session hooks
        [ (-1 - !rounds, 0, Gen.sim_probe ~seed !rounds) ]
        ~failed:probe_failed
    in
    sims := sim @ !sims;
    cycles := c :: !cycles;
    incr rounds
  done;
  let exchanges = List.rev !exchanges in
  let stats1 = Cache.stats (Service.cache session.svc) in
  stop session;
  let blobs1, bytes1 = store_usage dir in
  (* A sample of responses must match a serial in-process execution of
     the same request on a fresh service, byte for byte. *)
  let n = List.length exchanges in
  let serial = Service.create () in
  let sampled = List.filteri (fun k _ -> n <= samples || k mod (n / samples) = 0) exchanges in
  let mismatched =
    List.filter
      (fun e ->
        let expected, _ = Service.handle serial (Gen.with_id e.id (request e.id)) in
        normalized expected <> normalized e.line)
      sampled
  in
  let exchanges =
    List.map (fun e -> if List.memq e mismatched then { e with ok = false } else e) exchanges
  in
  let stratum id = id mod Gen.cold_strata in
  let ops, failed = timed_ops ~kind:stratum exchanges in
  let e2e, ctx =
    Harness.end_to_end ~setup_s ~ops ~tail_cap:95. ~sim_rate:(Harness.sim_rate !sims)
      ~design_cycles:
        (Float.of_int
           (List.fold_left ( + ) 0 (List.filteri (fun i _ -> i < min_rounds) (List.rev !cycles))))
  in
  if traced then begin
    trace_layers ~layers ~hooks ~stats0 ~stats1
      ~bytes:(fun id -> String.length (request id))
      exchanges;
    Layers.set layers "store.blobs_written" (Float.of_int (blobs1 - blobs0));
    Layers.set layers "store.bytes_written" (Float.of_int (bytes1 - bytes0))
  end;
  let failed = failed + !probe_failed in
  {
    Harness.attempted = n + !rounds;
    failed;
    correct = failed = 0;
    end_to_end = e2e;
    context =
      ctx @ shape_context
      @ [
          ("cache_capacity", string_of_int cache_capacity);
          ( "serial_checks",
            Printf.sprintf "%d sampled, %d mismatched" (List.length sampled)
              (List.length mismatched) );
        ];
    tables =
      Harness.kind_table ~title:"request latency by stratum" ~label:(Array.get Gen.cold_labels) ops;
  }
