(* What every workload reports, and the pieces they share: repeated
   set-up, round-based timing and the end-to-end metric set. *)

let now = Stencilflow.Util.monotime

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type outcome = {
  attempted : int;
  failed : int;
  correct : bool;  (** Every output check passed. *)
  end_to_end : metric list;
  context : (string * string) list;  (** Printed beside the results. *)
  tables : string list;  (** Extra human-readable lines. *)
}

(* Set-up runs [reps] times and is reported as the median, each
   repetition scaled by the probe run just before it (see {!Calib}); the
   last instance is the one the timed phase uses. Earlier instances are
   released by [dispose]. *)
let setup ~reps ?(dispose = ignore) f =
  let rec go i acc last =
    if i = reps then (Option.get last, acc)
    else begin
      Option.iter dispose last;
      Calib.run ();
      let t0 = now () in
      let x = f () in
      go (i + 1) (Calib.scale ~at:t0 (now () -. t0) :: acc) (Some x)
    end
  in
  let x, times = go 0 [] None in
  (x, Stats.median times)

(* An operation of a timed phase. Operations of one kind do the same
   work: a deck job repeated every round, a serve-compile stratum, a
   serve-warm grid point. *)
type op = {
  kind : int;
  start : float;
  seconds : float option;  (** As measured; [None] if it failed. *)
}

(* Run whole rounds of [deck] until [seconds] have elapsed and at least
   [min_rounds] rounds have run. A round is never cut short, so every
   job runs as often as every other. [f ~round i job] runs one operation
   and returns whether it succeeded. Each operation starts on a
   compacted heap, as a one-shot command starts in a fresh process, and
   the compaction also frees the probe's garbage; neither is timed.
   Returns every operation, its kind being its deck index, and the
   number of rounds. *)
let rounds ~seconds ~min_rounds deck f =
  let t_start = now () in
  let ops = ref [] and round = ref 0 in
  while !round < min_rounds || now () -. t_start < seconds do
    List.iteri
      (fun i job ->
        Calib.tick ();
        Gc.compact ();
        let start = now () in
        let ok = f ~round:!round i job in
        let dt = now () -. start in
        ops := { kind = i; start; seconds = (if ok then Some dt else None) } :: !ops)
      deck;
    incr round
  done;
  (List.rev !ops, !round)

(* The median of each kind's values among [(kind, value)] pairs. *)
let median_by_kind pairs =
  let by = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.add by k v) pairs;
  let medians = Hashtbl.create 64 in
  Hashtbl.iter
    (fun k _ ->
      if not (Hashtbl.mem medians k) then
        Hashtbl.replace medians k (Stats.median (Hashtbl.find_all by k)))
    by;
  medians

(* Stage cells simulated per host second, from [(kind, stage_cells,
   seconds)] for every simulation, seconds already scaled. Simulations of
   one kind do the same work; each kind counts once, at its median. *)
let sim_rate sims =
  let medians = median_by_kind (List.map (fun (k, _, s) -> (k, s)) sims) in
  let cells = Hashtbl.create 64 in
  List.iter (fun (k, c, _) -> Hashtbl.replace cells k c) sims;
  let c, s =
    Hashtbl.fold (fun k s (c, t) -> (c +. Float.of_int (Hashtbl.find cells k), t +. s)) medians (0., 0.)
  in
  if s > 0. then c /. s else 0.

(* The end-to-end metric set, in BENCHMARK.json order, from every
   operation of the timed phase. Latencies are scaled by the host probe
   (see {!Calib}). Percentiles are over the operations; throughput takes
   each operation at its kind's median, so one operation disturbed by
   the host does not move it. A failed operation counts as missing any
   latency limit: its latency is infinity and it adds nothing to
   throughput. *)
let end_to_end ~setup_s ~ops ~tail_cap ~sim_rate ~design_cycles =
  let scaled = List.map (fun o -> (o.kind, Option.map (Calib.scale ~at:o.start) o.seconds)) ops in
  let medians = median_by_kind (List.filter_map (fun (k, s) -> Option.map (fun s -> (k, s)) s) scaled) in
  let busy, completed =
    List.fold_left
      (fun (b, n) (k, s) -> if s = None then (b, n) else (b +. Hashtbl.find medians k, n + 1))
      (0., 0) scaled
  in
  let ms = List.map (fun (_, s) -> Option.fold ~none:infinity ~some:(fun s -> 1000. *. s) s) scaled in
  let p, tail, beyond = Stats.tail ~cap:tail_cap ms in
  ( [
      m "setup_s" "s" setup_s;
      m "ops_per_s" "1/s" (if busy > 0. then Float.of_int completed /. busy else 0.);
      m "latency_p50_ms" "ms" (Stats.median ms);
      m "latency_tail_ms" "ms" tail;
      m "sim_stage_cells_per_s" "1/s" sim_rate;
      m "design_cycles" "cycles" design_cycles;
      m "peak_rss_mb" "MB" (Stats.peak_rss_mb ());
    ],
    [
      ("latency_tail_percentile", Printf.sprintf "p%g" p);
      ("latency_samples", string_of_int (List.length ms));
      ("latency_samples_beyond_tail", string_of_int beyond);
      ( "host_probe_ms_p50",
        Printf.sprintf "%.2f (reference %.2f)" (1000. *. Calib.median ()) (1000. *. Calib.reference) );
    ] )

(* Per-kind figures for the report: median milliseconds as measured and
   as scaled, and the number of runs. *)
let kind_table ~title ~label ops =
  let raw = median_by_kind (List.filter_map (fun o -> Option.map (fun s -> (o.kind, s)) o.seconds) ops)
  and scaled =
    median_by_kind
      (List.filter_map (fun o -> Option.map (fun s -> (o.kind, Calib.scale ~at:o.start s)) o.seconds) ops)
  in
  (title ^ " (median ms as measured, scaled, runs):")
  :: List.map
       (fun k ->
         let get t = Option.fold ~none:nan ~some:(fun s -> 1000. *. s) (Hashtbl.find_opt t k) in
         Printf.sprintf "  %-28s %9.1f %9.1f %5d" (label k) (get raw) (get scaled)
           (List.length (List.filter (fun o -> o.kind = k && o.seconds <> None) ops)))
       (List.sort_uniq compare (List.map (fun o -> o.kind) ops))
