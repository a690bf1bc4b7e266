(* Per-layer accounting for the traced run: pass timings become spans,
   artifact counters become layer counts, and [metrics] renders the
   fixed per-layer metric set every traced run reports. A layer a
   workload does not exercise reports 0. *)

open Stencilflow

type t = { spans : Span.t; mu : Mutex.t; counts : (string, float) Hashtbl.t }

let create spans = { spans; mu = Mutex.create (); counts = Hashtbl.create 32 }

let add t name v =
  Mutex.lock t.mu;
  Hashtbl.replace t.counts name (v +. Option.value ~default:0. (Hashtbl.find_opt t.counts name));
  Mutex.unlock t.mu

let get t name = Option.value ~default:0. (Hashtbl.find_opt t.counts name)
let set t name v = Mutex.lock t.mu; Hashtbl.replace t.counts name v; Mutex.unlock t.mu

(* Pass names with their option suffix dropped: vectorize-4 -> vectorize. *)
let canonical name =
  match String.rindex_opt name '-' with
  | Some i when i + 1 < String.length name && String.for_all (fun c -> c >= '0' && c <= '9')
                  (String.sub name (i + 1) (String.length name - i - 1)) ->
      String.sub name 0 i
  | _ -> name

(* Fold one pass timing into the spans and counters. [stop] is when the
   pass ended on the benchmark's clock. *)
let pass t ~op ~parent ~stop (timing : Pass_manager.timing) =
  let name = canonical timing.Pass_manager.pass in
  let counter k l = Option.value ~default:0 (List.assoc_opt k l) |> Float.of_int in
  let after k = counter k timing.Pass_manager.counters_after in
  let before k = counter k timing.Pass_manager.counters_before in
  if timing.Pass_manager.cached then add t "pass.cached" 1.
  else begin
    add t "pass.executed" 1.;
    ignore
      (Span.record t.spans ~parent ~op ("pass." ^ name)
         ~start:(stop -. timing.Pass_manager.seconds) ~stop);
    match name with
    | "stencil-fusion" -> add t "sdfg.stencils_fused" (before "stencils" -. after "stencils")
    | "fold-cse" -> add t "sdfg.ops_after" (after "opt-ops-after")
    | "delay-buffers" -> add t "analysis.delay_words" (after "delay-words")
    | "partition" | "partition-into" -> add t "mapping.devices" (after "devices")
    | "codegen-opencl" | "codegen-vitis" -> add t "codegen.bytes" (after "code-bytes")
    | "simulate" ->
        add t "sim.cycles" (after "sim-cycles");
        add t "sim.stalls" (after "sim-stalls");
        add t "sim.simulations" 1.
    | _ -> ()
  end

(* A pass trace reported after the fact (the serve tier's [on_trace]):
   the passes ran back to back and the last one ended at [stop]. *)
let trace t ~op ~parent ~stop (trace : Pass_manager.trace) =
  ignore
    (List.fold_left
       (fun stop (timing : Pass_manager.timing) ->
         pass t ~op ~parent ~stop timing;
         if timing.Pass_manager.cached then stop else stop -. timing.Pass_manager.seconds)
       stop (List.rev trace))

let hooks t ~op ~parent =
  { Pass_manager.no_hooks with on_pass = Some (fun timing -> pass t ~op ~parent ~stop:(Span.now ()) timing) }

let catalogue =
  [ "load-string"; "vectorize"; "stencil-fusion"; "fold-cse"; "delay-buffers"; "partition";
    "partition-into"; "performance-model"; "simulate"; "codegen-opencl"; "codegen-vitis" ]

(* Every per-layer metric, in BENCHMARK.json order. *)
let metrics t =
  let s = t.spans in
  let ms name = Span.mean_ms s name in
  let per name denom = if get t denom = 0. then 0. else get t name /. get t denom in
  let count name = Harness.m name "count" (get t name) in
  let ratio a b = if b = 0. then 0. else a /. b in
  let parse_mb = get t "frontend.bytes" /. 1e6 in
  [
    Harness.m "frontend.parse_ms" "ms" (ms "pass.load-string");
    Harness.m "frontend.parse_mb_per_s" "MB/s" (ratio parse_mb (Span.total_s s "pass.load-string"));
    Harness.m "sdfg.fuse_ms" "ms" (ms "pass.stencil-fusion");
    Harness.m "sdfg.optimize_ms" "ms" (ms "pass.fold-cse");
    Harness.m "sdfg.stencils_fused" "count" (ratio (get t "sdfg.stencils_fused") (Float.of_int (Span.count s "pass.stencil-fusion")));
    Harness.m "sdfg.ops_after" "count" (ratio (get t "sdfg.ops_after") (Float.of_int (Span.count s "pass.fold-cse")));
    Harness.m "analysis.delay_buffers_ms" "ms" (ms "pass.delay-buffers");
    Harness.m "analysis.perf_model_ms" "ms" (ms "pass.performance-model");
    Harness.m "analysis.delay_words" "count" (ratio (get t "analysis.delay_words") (Float.of_int (Span.count s "pass.delay-buffers")));
    Harness.m "mapping.partition_ms" "ms"
      (ratio (1000. *. (Span.total_s s "pass.partition" +. Span.total_s s "pass.partition-into"))
         (Float.of_int (Span.count s "pass.partition" + Span.count s "pass.partition-into")));
    Harness.m "mapping.devices" "count"
      (ratio (get t "mapping.devices") (Float.of_int (Span.count s "pass.partition" + Span.count s "pass.partition-into")));
    Harness.m "codegen.opencl_ms" "ms" (ms "pass.codegen-opencl");
    Harness.m "codegen.vitis_ms" "ms" (ms "pass.codegen-vitis");
    Harness.m "codegen.bytes" "count"
      (ratio (get t "codegen.bytes") (Float.of_int (Span.count s "pass.codegen-opencl" + Span.count s "pass.codegen-vitis")));
    Harness.m "reference.interp_ms" "ms" (ms "reference.interp");
    Harness.m "reference.eval_ns_per_cell" "ns" (per "reference.eval_ns_sum" "reference.eval_probes");
    Harness.m "sim.build_ms" "ms" (ms "sim.build");
    Harness.m "sim.run_ms" "ms" (ms "sim.run");
    Harness.m "sim.host_ns_per_cycle" "ns" (ratio (1e9 *. Span.total_s s "sim.run") (get t "sim.run_cycles"));
    Harness.m "sim.cycles" "cycles" (per "sim.cycles" "sim.simulations");
    Harness.m "sim.stalls" "cycles" (per "sim.stalls" "sim.simulations");
    Harness.m "sim.telemetry_on_over_off" "ratio" (ratio (Span.total_s s "sim.run") (Span.total_s s "sim.run_telemetry_off")
      |> fun r -> if Span.count s "sim.run_telemetry_off" = 0 then 0. else r);
    Harness.m "sim.fault_schedule_ms" "ms" (ratio (1000. *. Span.total_s s "faults.campaign") (get t "faults.schedules"));
  ]
  @ List.map (fun p -> Harness.m ("pass." ^ p ^ ".ms") "ms" (ms ("pass." ^ p))) catalogue
  @ [
      count "pass.executed";
      count "pass.cached";
      count "cache.hits";
      count "cache.misses";
      count "cache.joined";
      count "cache.evictions";
      Harness.m "cache.hit_ratio" "ratio" (ratio (get t "cache.hits") (get t "cache.hits" +. get t "cache.misses"));
      Harness.m "service.queue_ms_p50" "ms" (get t "service.queue_ms_p50");
      Harness.m "service.exec_ms_p50" "ms" (get t "service.exec_ms_p50");
      Harness.m "service.overhead_ms_p50" "ms" (get t "service.overhead_ms_p50");
      count "service.rejected";
      Harness.m "executor.jobs2_over_jobs1" "ratio" (get t "executor.jobs2_over_jobs1");
      count "store.blobs_written";
      Harness.m "store.bytes_written" "bytes" (get t "store.bytes_written");
      Harness.m "trace.traced_ops_per_s" "1/s" (get t "trace.traced_ops_per_s");
      Harness.m "trace.overhead_ratio" "ratio" (get t "trace.overhead_ratio");
    ]
