(* The repository benchmark. One run measures one workload:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 it reports the end-to-end metrics; with --trace 1 it
   runs the same workload again with a span around every call it makes
   into a module and reports the per-layer metrics, writing the spans to
   .perfbench-out/ as Chrome trace_event JSON. Human-readable results and
   their context come first; the last line of standard output is the
   JSON result. See perfbench/README.md for the metrics and workloads. *)

open Perfbench

let workloads =
  [ ("oneshot-sim", Oneshot.run); ("serve-warm", Serve.warm); ("serve-compile", Serve.compile);
    ("validate-campaign", Campaign.run) ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (oneshot-sim|serve-warm|serve-compile|validate-campaign) \
     --seed N --seconds S --trace 0|1";
  exit 2

let out_dir = ".perfbench-out"

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "1.7976931348623157e308"

let json_line (o : Harness.outcome) metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    o.Harness.correct o.Harness.attempted o.Harness.failed
    (String.concat ", "
       (List.map
          (fun (x : Harness.metric) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.Harness.name (number x.Harness.value)
              x.Harness.unit_)
          metrics))

(* The untraced figures of the last --trace 0 run of the same workload
   and seed in this checkout, so a traced run can report its overhead. *)
let baseline_file ~workload ~seed = Filename.concat out_dir (Printf.sprintf "%s-%d.untraced" workload seed)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := int_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let run = match List.assoc_opt !workload workloads with Some f -> f | None -> usage () in
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  let traced = !trace = 1 in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let spans = Span.create ~enabled:traced in
  let layers = Layers.create spans in
  let t0 = Harness.now () and steal0, total0 = Stats.cpu_jiffies () in
  let o = run ~seed:!seed ~seconds:(Float.of_int !seconds) ~layers in
  let wall = Harness.now () -. t0 and steal1, total1 = Stats.cpu_jiffies () in
  let ops_per_s =
    (List.find (fun (x : Harness.metric) -> x.Harness.name = "ops_per_s") o.Harness.end_to_end).Harness.value
  in
  let baseline = baseline_file ~workload:!workload ~seed:!seed in
  if traced then begin
    Layers.set layers "trace.traced_ops_per_s" ops_per_s;
    (match In_channel.with_open_text baseline In_channel.input_all with
    | s -> Layers.set layers "trace.overhead_ratio" (float_of_string (String.trim s) /. ops_per_s)
    | exception Sys_error _ -> ())
  end
  else Out_channel.with_open_text baseline (fun oc -> Printf.fprintf oc "%.17g\n" ops_per_s);
  Printf.printf "perfbench %s  seed %d  seconds %d  trace %d  host_cores %d  wall %.1f s\n" !workload
    !seed !seconds !trace (Domain.recommended_domain_count ()) wall;
  Printf.printf "  %-30s %.1f%% of CPU time during the run\n" "host_steal"
    (100. *. Float.of_int (steal1 - steal0) /. Float.of_int (max 1 (total1 - total0)));
  List.iter (fun (k, v) -> Printf.printf "  %-30s %s\n" k v) o.Harness.context;
  Printf.printf "  %-30s %d attempted, %d failed, outputs %s\n" "operations" o.Harness.attempted
    o.Harness.failed (if o.Harness.correct then "correct" else "INCORRECT");
  let metrics = if traced then Layers.metrics layers else o.Harness.end_to_end in
  List.iter
    (fun (x : Harness.metric) -> Printf.printf "  %-30s %14.4f %s\n" x.Harness.name x.Harness.value x.Harness.unit_)
    metrics;
  List.iter print_endline o.Harness.tables;
  if traced then begin
    print_endline "self time by span (spans, total ms, self ms):";
    List.iter
      (fun (name, n, total, self) -> Printf.printf "  %-28s %7d %12.1f %12.1f\n" name n total self)
      (Span.self_times spans);
    let file = Filename.concat out_dir (Printf.sprintf "trace-%s-%d.json" !workload !seed) in
    Span.write spans file;
    Printf.printf "spans written to %s\n" file;
    if not (Sys.file_exists baseline) then
      print_endline "no untraced run of this workload and seed yet: trace.overhead_ratio is 0"
  end;
  print_endline (json_line o metrics)
