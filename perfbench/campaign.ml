(* validate-campaign: for each seeded program, a telemetry-on
   simulation validated against the reference, then Faults.campaign over
   the program's seeded fault plan. It is the workload that runs the
   instrumented schedule and fault injection. The timed campaigns run on
   one worker: on a shared host a two-worker pool needs two cores at
   once, and its figures then follow the hypervisor's steal time more
   than the program. Traced, the first round also runs each campaign on
   an Executor pool of two workers (for the pool's speedup) and every
   job times a telemetry-off run (for the telemetry overhead). *)

open Stencilflow

let telemetry_on =
  Engine.Config.make
    ~tracing:(Engine.Config.tracing ~telemetry:true ())
    ~parallelism:(Engine.Config.parallelism ~host_jobs:1 ())
    ()

let campaign_job ~layers ~op (c : Gen.campaign_job) =
  let spans = layers.Layers.spans in
  Span.within spans ~op "job" @@ fun parent ->
  match Oneshot.simulate_job ~layers ~op ~parent ~config:telemetry_on c.Gen.base with
  | Error e -> Error e
  | Ok sim -> (
      let { Oneshot.program = p; placement; inputs; _ } = sim in
      let inputs = Lazy.force inputs in
      let plan = Result.get_ok (Fault_plan.of_string c.Gen.plan) in
      let campaign ~jobs name =
        let t0 = Span.now () in
        let r =
          Span.within spans ~parent ~op name (fun _ ->
              Faults.campaign ~config:Oneshot.config ~placement ~inputs ~plan
                ~schedules:c.Gen.schedules ~jobs p)
        in
        (r, Span.now () -. t0)
      in
      if Span.enabled spans then begin
        ignore
          (Span.within spans ~parent ~op "sim.run_telemetry_off" (fun _ ->
               Parallel.run ~config:Oneshot.config ~placement ~inputs p));
        Layers.add layers "faults.schedules" (Float.of_int c.Gen.schedules)
      end;
      let report, t1 = campaign ~jobs:1 "faults.campaign" in
      if Span.enabled spans && op < 100 then begin
        let _, t2 = campaign ~jobs:2 "faults.campaign_jobs2" in
        Layers.add layers "executor.jobs1_s" t1;
        Layers.add layers "executor.jobs2_s" t2
      end;
      match report with
      | Error d -> Error (Diag.to_string d)
      | Ok r when not (Faults.passed r) ->
          Error (String.concat "; " (List.map (fun (_, d) -> Diag.to_string d) (Faults.failures r)))
      | Ok r when r.Faults.baseline_cycles <> sim.Oneshot.cycles ->
          Error
            (Printf.sprintf "telemetry-on run took %d cycles, telemetry-off baseline %d"
               sim.Oneshot.cycles r.Faults.baseline_cycles)
      | Ok _ -> Ok sim)

let run ~seed ~seconds ~layers =
  let deck, setup_s =
    Harness.setup ~reps:Oneshot.setup_reps (fun () ->
        let deck = Gen.campaign ~seed in
        List.iter
          (fun (c : Gen.campaign_job) ->
            Oneshot.check_loads c.Gen.base;
            match Fault_plan.of_string c.Gen.plan with Ok _ -> () | Error m -> failwith m)
          deck;
        deck)
  in
  let o =
    (* At least 12 rounds of 9 jobs leave ten jobs beyond p90, which
       falls among the two hdiff jobs, the heaviest of the deck. *)
    Oneshot.measure ~seconds ~setup_s ~min_rounds:12 ~tail_cap:90. deck
      ~label:(fun (c : Gen.campaign_job) -> c.Gen.base.Gen.label)
      ~stage_cells:(fun (c : Gen.campaign_job) -> c.Gen.base.Gen.cells * c.Gen.base.Gen.stages)
      (campaign_job ~layers)
  in
  if Layers.get layers "executor.jobs2_s" > 0. then
    Layers.set layers "executor.jobs2_over_jobs1"
      (Layers.get layers "executor.jobs1_s" /. Layers.get layers "executor.jobs2_s");
  {
    o with
    Harness.context =
      o.Harness.context @ [ ("shape", "closed loop, 1 client, 1 job at a time, campaigns on 1 worker") ];
  }
