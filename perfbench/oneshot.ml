(* oneshot-sim: the pass list of [stencilflow simulate], run in-process
   on a single domain with no cache, over a seeded round of
   simulation-heavy jobs. Untraced, each job runs the [simulate] pass as
   the CLI does. Traced, the benchmark calls the pieces of that pass
   itself (Engine.run, then Interp.run and the comparison) so the split
   between simulator and reference is measured, and additionally times
   Engine.Internal.build and Compile.body. *)

open Stencilflow

let config = Engine.Config.make ~parallelism:(Engine.Config.parallelism ~host_jobs:1 ()) ()

let passes (j : Gen.job) ~simulate =
  [ Passes.load_string j.Gen.source ]
  @ (match j.Gen.width with Some w -> [ Passes.vectorize w ] | None -> [])
  @ [
      Passes.fuse ();
      Passes.delay_buffers;
      (match j.Gen.devices with Some n -> Passes.partition_into n | None -> Passes.partition);
      Passes.performance_model;
    ]
  @ if simulate then [ Passes.simulate ~seed:j.Gen.data_seed () ] else []

(* Compile.body on the widest stencil body, evaluated over synthetic
   cells: nanoseconds per cell of the closure evaluator. *)
let eval_ns_per_cell (p : Program.t) =
  let widest =
    List.fold_left
      (fun best s ->
        let ops = Expr.flop_count (Stencil.work_profile s) in
        match best with Some (n, _) when n >= ops -> best | _ -> Some (ops, s))
      None p.Program.stencils
  in
  match widest with
  | None -> 0.
  | Some (_, s) ->
      let data = Array.init 4096 (fun i -> Float.of_int ((i * 37) land 255) /. 256.) in
      let access ~field ~offsets =
        let k = Hashtbl.hash (field, offsets) land 4095 in
        fun i -> data.((i + k) land 4095)
      in
      let f = Compile.body ~access s.Stencil.body in
      let n = 4_000 in
      let sink = ref 0. in
      let t0 = Span.now () in
      for i = 0 to n - 1 do
        sink := !sink +. f i
      done;
      let dt = Span.now () -. t0 in
      if Float.is_nan !sink then 0. else 1e9 *. dt /. Float.of_int n

type sim = {
  cycles : int;
  sim_seconds : float;  (** Host seconds simulating and validating. *)
  program : Program.t;  (** As simulated: vectorized and fused. *)
  placement : string -> int;
  inputs : (string * Tensor.t) list Lazy.t;
      (** The simulation's inputs, drawn again only when asked for. *)
}

(* Run a job's pipeline and its validated simulation under [config];
   [Error] carries why it failed. *)
let simulate_job ~layers ~op ~parent ~config (j : Gen.job) =
  let spans = layers.Layers.spans in
  let traced = Span.enabled spans in
  let sim_seconds = ref 0. in
  let hooks =
    if traced then Layers.hooks layers ~op ~parent
    else
      { Pass_manager.no_hooks with
        on_pass =
          Some
            (fun t ->
              if t.Pass_manager.pass = "simulate" then sim_seconds := t.Pass_manager.seconds) }
  in
  let describe ds = Error (String.concat "; " (List.map Diag.to_string ds)) in
  match Pass_manager.run ~hooks (passes j ~simulate:(not traced)) (Ctx.create ~sim_config:config ()) with
  | Error (ds, _) -> describe ds
  | Ok (ctx, _) -> (
      let p = Option.get ctx.Ctx.program in
      let placement = Partition.placement_fn (Option.get ctx.Ctx.partition) in
      let inputs = lazy (Interp.random_inputs ~seed:j.Gen.data_seed p) in
      let sim stats sim_seconds inputs =
        Ok { cycles = stats.Engine.cycles; sim_seconds; program = p; placement; inputs }
      in
      if not traced then
        match ctx.Ctx.simulation with
        | Some (Ok stats) when not (Diag.has_errors ctx.Ctx.diags) -> sim stats !sim_seconds inputs
        | _ -> describe ctx.Ctx.diags
      else begin
        let inputs = Lazy.force inputs in
        Layers.add layers "frontend.bytes" (Float.of_int (String.length j.Gen.source));
        let timed name f = Span.within spans ~parent ~op name (fun _ -> f ()) in
        ignore
          (timed "sim.build" (fun () ->
               Engine.Internal.build ~config ~telemetry:(Telemetry.create ~enabled:false ())
                 ~placement ~inputs p));
        let t0 = Span.now () in
        match timed "sim.run" (fun () -> Parallel.run ~config ~placement ~inputs p) with
        | Error d -> describe [ d ]
        | Ok stats -> (
            let t1 = Span.now () in
            let checked =
              timed "reference.interp" (fun () -> Engine.Internal.compare_to_reference ~inputs p stats)
            in
            let t2 = Span.now () in
            Layers.add layers "reference.eval_ns_sum" (timed "reference.eval_probe" (fun () -> eval_ns_per_cell p));
            Layers.add layers "reference.eval_probes" 1.;
            Layers.add layers "sim.run_cycles" (Float.of_int stats.Engine.cycles);
            Layers.add layers "sim.cycles" (Float.of_int stats.Engine.cycles);
            Layers.add layers "sim.stalls" (Float.of_int (Telemetry.total_blocked stats.Engine.telemetry));
            Layers.add layers "sim.simulations" 1.;
            Layers.add layers ("split.run." ^ j.Gen.label) (t1 -. t0);
            Layers.add layers ("split.ref." ^ j.Gen.label) (t2 -. t1);
            match checked with
            | Error d -> describe [ d ]
            | Ok _ -> sim stats (t2 -. t0) (Lazy.from_val inputs))
      end)

(* The timed phase shared by oneshot-sim and validate-campaign: whole
   rounds of the deck, one job at a time. [job ~op item] runs one job.
   Simulated designs are deterministic, so every round must reproduce
   the first round's cycle counts; [design_cycles] sums them over one
   round. *)
let measure ~seconds ~setup_s ~min_rounds ~tail_cap ~label ~stage_cells deck job =
  let deck_a = Array.of_list deck in
  let first_cycles = Hashtbl.create 16 and sims = ref [] and errors = ref [] in
  let ops, rounds =
    Harness.rounds ~seconds ~min_rounds deck (fun ~round i item ->
        let fail e =
          errors := Printf.sprintf "%s: %s" (label item) e :: !errors;
          false
        in
        let at = Harness.now () in
        match job ~op:((round * 100) + i) item with
        | Error e -> fail e
        | Ok sim -> (
            sims := (i, stage_cells item, Calib.scale ~at sim.sim_seconds) :: !sims;
            match Hashtbl.find_opt first_cycles i with
            | None ->
                Hashtbl.add first_cycles i sim.cycles;
                true
            | Some c when c = sim.cycles -> true
            | Some c -> fail (Printf.sprintf "cycles %d differ from the first round's %d" sim.cycles c)))
  in
  let design_cycles = Hashtbl.fold (fun _ c acc -> acc + c) first_cycles 0 in
  let failed = List.length (List.filter (fun o -> o.Harness.seconds = None) ops) in
  let e2e, ctx =
    Harness.end_to_end ~setup_s ~ops ~tail_cap ~sim_rate:(Harness.sim_rate !sims)
      ~design_cycles:(Float.of_int design_cycles)
  in
  {
    Harness.attempted = List.length ops;
    failed;
    correct = failed = 0;
    end_to_end = e2e;
    context =
      ctx @ [ ("rounds", string_of_int rounds); ("jobs_per_round", string_of_int (Array.length deck_a)) ];
    tables =
      Harness.kind_table ~title:"job latency by stratum" ~label:(fun i -> label deck_a.(i)) ops
      @ List.rev !errors;
  }

(* Every generated program must load before anything is timed. *)
let check_loads (j : Gen.job) =
  match Program_json.of_string j.Gen.source with
  | Ok _ -> ()
  | Error ds -> failwith (String.concat "; " (List.map Diag.to_string ds))

(* Set-up is a few milliseconds, so it is repeated often enough for its
   median to hold still. *)
let setup_reps = 31

let run ~seed ~seconds ~layers =
  let deck, setup_s =
    Harness.setup ~reps:setup_reps (fun () ->
        let deck = Gen.oneshot ~seed in
        List.iter check_loads deck;
        deck)
  in
  let spans = layers.Layers.spans in
  let o =
    measure ~seconds ~setup_s ~min_rounds:4 ~tail_cap:75. deck
      ~label:(fun (j : Gen.job) -> j.Gen.label)
      ~stage_cells:(fun (j : Gen.job) -> j.Gen.cells * j.Gen.stages)
      (fun ~op j -> Span.within spans ~op "job" (fun parent -> simulate_job ~layers ~op ~parent ~config j))
  in
  let split =
    if not (Span.enabled spans) then []
    else
      "per-job split of the simulate pass (Engine.run | Interp.run + compare), seconds over all rounds:"
      :: List.map
           (fun (j : Gen.job) ->
             let r = Layers.get layers ("split.run." ^ j.Gen.label)
             and f = Layers.get layers ("split.ref." ^ j.Gen.label) in
             Printf.sprintf "  %-22s engine %8.3f s  reference %8.3f s  engine share %5.1f%%"
               j.Gen.label r f (100. *. r /. Float.max 1e-9 (r +. f)))
           deck
  in
  {
    o with
    Harness.context =
      o.Harness.context @ [ ("shape", "closed loop, 1 client, 1 job at a time, single domain, no cache") ];
    tables = split @ o.Harness.tables;
  }
