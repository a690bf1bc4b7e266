(* Seeded inputs for every workload. The benchmark seed is the only
   source of randomness: the same seed yields byte-identical programs and
   request lines, and the program under test receives nothing but them.

   Every workload is a stratified draw. Each seed runs the same strata
   (program family, shape, chain length, vector width, verb) and the
   seed varies what lies inside a stratum: boundary constants, shapes of
   the serve-compile programs, random DAG structure, input data, fault
   plans and request order. That keeps the work per run comparable
   across seeds, so seeds can be told apart from regressions. *)

open Stencilflow

let rng seed salt = Random.State.make [| seed; Hashtbl.hash (salt : string) |]
let range st lo hi = lo + Random.State.int st (hi - lo + 1)

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* A boundary constant that changes the program's content (and so its
   cache key) without changing the work it takes. *)
let boundary st = Boundary.Constant (Float.of_int (Random.State.int st 64) /. 16.)
let cells shape = List.fold_left ( * ) 1 shape
let rename name (p : Program.t) = { p with Program.name }

(* Program families ------------------------------------------------- *)

let chain st kind ~shape ~length =
  Iterative.chain ~shape ~boundary:(boundary st) kind ~length

let hdiff ~shape = Hdiff.program ~shape ()
let shallow_water ~shape = Swe.program ~shape ()
let wave ~shape = Wave.program ~shape ()

(* The smoothing example (examples/programs/smoothing3d.json) as a
   generator: a Laplacian feeding a guarded update that reads a 1D weight
   and a scalar. *)
let smoothing3d st ~shape =
  let open Builder.E in
  let b = Builder.create ~name:"smoothing3d" ~shape () in
  Builder.input b "u";
  Builder.input b ~axes:[ 1 ] "weight";
  Builder.input b ~axes:[] "alpha";
  let u o = acc "u" o in
  Builder.stencil b ~boundary:[ ("u", Boundary.Copy) ]
    ~lets:[ ("t", sum [ u [ 0; 0; -1 ]; u [ 0; 0; 1 ]; u [ 0; -1; 0 ]; u [ 0; 1; 0 ] ]) ]
    "lap"
    (var "t" -% (c (Float.of_int (range st 3 5)) *% u [ 0; 0; 0 ]));
  Builder.stencil b ~boundary:[ ("lap", boundary st) ]
    ~lets:[ ("upd", sc "alpha" *% acc "weight" [ 0 ] *% acc "lap" [ 0; 0; 0 ]) ]
    "smooth"
    (sel (abs_ (var "upd") >% c 1.) (u [ 0; 0; 0 ]) (u [ 0; 0; 0 ] +% var "upd"));
  Builder.output b "smooth";
  Builder.finish b

(* A random stencil DAG over a 2D grid: [n] stencils, each reading one
   to three earlier fields (inputs or stencils) at offsets within radius
   2 through +, -, *, min and max. The first stencil reads both inputs;
   every sink is an output. *)
let random_dag st ~name ~shape ~n =
  let open Builder.E in
  let b = Builder.create ~name ~shape () in
  let inputs = [ "in0"; "in1" ] in
  List.iter (Builder.input b) inputs;
  let fields = ref inputs and consumed = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    let avail = Array.of_list !fields in
    let read_here = Hashtbl.create 4 in
    let read f =
      Hashtbl.replace consumed f ();
      Hashtbl.replace read_here f ();
      acc f [ range st (-2) 2; range st (-2) 2 ]
    in
    let rec term depth =
      if depth = 0 || Random.State.int st 3 = 0 then
        if Random.State.int st 4 = 0 then c (Float.of_int (range st 1 8) /. 8.)
        else read avail.(Random.State.int st (Array.length avail))
      else
        let l = term (depth - 1) in
        let r = term (depth - 1) in
        match Random.State.int st 5 with
        | 0 -> l +% r
        | 1 -> l -% r
        | 2 -> c 0.5 *% l *% r
        | 3 -> min_ l r
        | _ -> max_ l r
    in
    let seeds = if i = 0 then List.map read inputs else [ read avail.(Array.length avail - 1) ] in
    let terms = seeds @ List.init (range st 0 2) (fun _ -> term 2) in
    let boundaries =
      List.filter_map
        (fun f -> if Hashtbl.mem read_here f then Some (f, boundary st) else None)
        (Array.to_list avail)
    in
    let name = Printf.sprintf "s%d" i in
    Builder.stencil b ~boundary:boundaries name (sum terms);
    fields := !fields @ [ name ]
  done;
  List.iter
    (fun f -> if (not (List.mem f inputs)) && not (Hashtbl.mem consumed f) then Builder.output b f)
    !fields;
  Builder.finish b

let stencil_count (p : Program.t) = List.length p.Program.stencils

(* oneshot-sim ------------------------------------------------------ *)

type job = {
  label : string;  (** The stratum, stable across seeds. *)
  source : string;  (** The program, as {!Program_json.to_string} renders it. *)
  width : int option;  (** Vectorize to this width before fusion. *)
  devices : int option;  (** Force a contiguous partition onto N devices. *)
  data_seed : int;  (** Seed of the simulation's random input data. *)
  stages : int;  (** Stencils before fusion. *)
  cells : int;  (** Grid cells of the program's iteration space. *)
}

let job st ~label ?width ?devices (p : Program.t) =
  {
    label;
    source = Program_json.to_string p;
    width;
    devices;
    data_seed = Random.State.int st 1_000_000;
    stages = stencil_count p;
    cells = cells p.Program.shape;
  }

(* One round of simulation-heavy jobs, 13 strata with fixed shapes,
   widths and chain lengths; the seed draws input data, boundary
   constants, the depth of the smoothing grid and the order. The strata are spaced in cost so that the
   median falls among the hdiff-small jobs and p75 on the 192x192 W4
   chain, whatever the number of rounds. Fused Jacobi chains stay at 8
   stages or fewer: fusion and compile cost grow steeply with depth, and
   this workload is about the simulator and the reference. *)
let oneshot ~seed =
  let st = rng seed "oneshot" in
  let jacobi side w length =
    job st
      ~label:(Printf.sprintf "jacobi2d-%dx%d-w%d-l%d" side side w length)
      ?width:(if w > 1 then Some w else None)
      (chain st Iterative.Jacobi2d ~shape:[ side; side ] ~length)
  in
  let hdiff_small w =
    job st
      ~label:(Printf.sprintf "hdiff-small-w%d" w)
      ?width:(if w > 1 then Some w else None)
      (hdiff ~shape:[ 8; 32; 32 ])
  in
  let jobs =
    [
      job st ~label:"smoothing3d-w4" ~width:4 (smoothing3d st ~shape:[ 16 + (4 * range st 0 2); 32; 32 ]);
      jacobi 128 1 3;
      job st ~label:"shallow-water" (shallow_water ~shape:[ 96; 96 ]);
      job st ~label:"hdiff-2dev" ~devices:2 (hdiff ~shape:[ 4; 32; 32 ]);
      jacobi 128 4 5;
      hdiff_small 1;
      hdiff_small 2;
      hdiff_small 4;
      jacobi 192 1 4;
      jacobi 192 4 6;
      jacobi 256 1 5;
      jacobi 256 4 7;
      jacobi 256 1 8;
    ]
  in
  Array.to_list (shuffle st (Array.of_list jobs))

(* serve-* requests ------------------------------------------------- *)

(* A request line without its id; the client prepends [{"id":N,]. *)
let request ~verb ?(options = []) (p : Program.t) =
  let body =
    Json.to_string ~minify:true
      (Json.Obj
         [
           ("verb", Json.String verb);
           ("program", Program_json.to_json p);
           ("options", Json.Obj options);
         ])
  in
  String.sub body 1 (String.length body - 1)

let with_id id tail = Printf.sprintf "{\"id\":%d,%s" id tail

type verb = Analyze | Simulate of int | Codegen of string

let verb_options = function
  | Analyze -> ("analyze", [])
  | Simulate seed -> ("simulate", [ ("seed", Json.Int seed) ])
  | Codegen backend -> ("codegen", [ ("backend", Json.String backend) ])

let compile_request p ~verb ~width ~fuse =
  let name, extra = verb_options verb in
  let options =
    (match width with Some w -> [ ("width", Json.Int w) ] | None -> [])
    @ (if fuse then [ ("fuse", Json.Bool true); ("optimize", Json.Bool true) ] else [])
    @ extra
  in
  request ~verb:name ~options p

(* A request with what the benchmark needs to know about it. *)
type point = {
  line : string;  (** The request line without its id. *)
  simulate : bool;
  stage_cells : int;  (** Grid cells times stencils before fusion. *)
}

let point p ~verb ~width ~fuse =
  {
    line = compile_request p ~verb ~width ~fuse;
    simulate = (match verb with Simulate _ -> true | _ -> false);
    stage_cells = cells p.Program.shape * stencil_count p;
  }

(* serve-warm: the option grid primed during set-up, 6 programs x
   width {none, 4} x {plain, fuse+optimize} x 4 verbs. Programs small
   enough that priming is quick, with hdiff among them so a replay
   carries a realistically sized program. Grid index [i] is
   verb [i mod 4] of program [(i / 4) mod 6] in variant [i / 24]. *)
let warm_grid ~seed =
  let st = rng seed "serve-warm" in
  let programs =
    [|
      chain st Iterative.Jacobi2d ~shape:[ 128; 128 ] ~length:3;
      chain st Iterative.Diffusion2d ~shape:[ 128; 128 ] ~length:2;
      hdiff ~shape:[ 8; 32; 32 ];
      smoothing3d st ~shape:[ 8; 32; 64 ];
      shallow_water ~shape:[ 64; 64 ];
      wave ~shape:[ 96; 96 + (8 * range st 0 2) ];
    |]
  in
  let sim_seed = Random.State.int st 1_000_000 in
  let verbs = [| Analyze; Simulate sim_seed; Codegen "opencl"; Codegen "vitis" |] in
  let variants = [| (None, false); (Some 4, true); (None, true); (Some 4, false) |] in
  List.init 96 (fun i ->
      let width, fuse = variants.(i / 24) in
      point programs.(i / 4 mod 6) ~verb:verbs.(i mod 4) ~width ~fuse)

(* Zipf(s = 1) over the grid, grid index [i] being rank [i + 1]: an
   endless seeded stream of grid indices. The rank order is the same
   for every seed and interleaves programs and verbs, so the most
   popular points are the same mix whatever the seed. *)
let zipf_stream ~seed ~points =
  let st = rng seed "zipf" in
  let cdf = Array.make points 0. in
  let total = ref 0. in
  for r = 0 to points - 1 do
    total := !total +. (1. /. Float.of_int (r + 1));
    cdf.(r) <- !total
  done;
  fun () ->
    let u = Random.State.float st !total in
    let rec find lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) < u then find (mid + 1) hi else find lo mid
    in
    find 0 (points - 1)

(* serve-compile: request [i] of the cold stream, a distinct program
   every time (its name carries the seed and the index). Nine strata
   cycle in turn, from cheap to heavy, covering every kernel family and
   both backends. Every request of a stratum does the same work: shapes
   and chain lengths are fixed per stratum, and the random DAG is drawn
   once per seed. The seed and the index vary names and boundary
   constants, which change the cache key and not the work, so the
   benchmark can take each stratum at its fastest request (see
   Harness.end_to_end). Fused depths stay low because fusion and code
   generation cost grow steeply with depth (a fused diffusion3d chain of
   8 stages already takes seconds). *)
let cold_strata = 9

let cold_labels =
  [|
    "jacobi2d-l16-opencl"; "wave-fused-analyze"; "swe-opencl"; "dag-fused-vitis";
    "jacobi2d-l6-fused-analyze"; "diffusion2d-l5-fused-analyze"; "diffusion3d-l4-fused-opencl";
    "hdiff-fused-vitis"; "jacobi2d-l10-fused-opencl";
  |]

(* Each request's random DAG: one structure per seed, with the
   request's own boundary constants. *)
let cold_dag ~seed st ~name =
  let dag = random_dag (rng seed "serve-compile-dag") ~name ~shape:[ 64; 64 ] ~n:7 in
  {
    dag with
    Program.stencils =
      List.map
        (fun (s : Stencil.t) ->
          { s with Stencil.boundary = List.map (fun (f, _) -> (f, boundary st)) s.Stencil.boundary })
        dag.Program.stencils;
  }

let cold_request ~seed i =
  let st = Random.State.make [| seed; i; Hashtbl.hash "serve-compile" |] in
  let name kind = Printf.sprintf "%s_s%d_r%d" kind seed i in
  let iterative kind length =
    let shape =
      match kind with
      | Iterative.Diffusion3d | Iterative.Jacobi3d -> [ 16; 32; 64 ]
      | _ -> [ 128; 256 ]
    in
    rename (name (Iterative.kind_name kind)) (chain st kind ~shape ~length)
  in
  let p, verb, fuse =
    match i mod cold_strata with
    | 0 -> (iterative Iterative.Jacobi2d 16, Codegen "opencl", false)
    | 1 -> (rename (name "wave") (wave ~shape:[ 64; 64 ]), Analyze, true)
    | 2 -> (rename (name "swe") (shallow_water ~shape:[ 64; 64 ]), Codegen "opencl", false)
    | 3 -> (cold_dag ~seed st ~name:(name "dag"), Codegen "vitis", true)
    | 4 -> (iterative Iterative.Jacobi2d 6, Analyze, true)
    | 5 -> (iterative Iterative.Diffusion2d 5, Analyze, true)
    | 6 -> (iterative Iterative.Diffusion3d 4, Codegen "opencl", true)
    | 7 -> (rename (name "hdiff") (hdiff ~shape:[ 8; 32; 64 ]), Codegen "vitis", true)
    | _ -> (iterative Iterative.Jacobi2d 10, Codegen "opencl", true)
  in
  compile_request p ~verb ~width:None ~fuse

(* serve-compile's simulator probe [i]: a distinct Diffusion2d chain of
   one shape, simulated between rounds of the timed stream (which runs
   no simulation). Each takes tens of milliseconds. *)
let sim_probe ~seed i =
  let st = Random.State.make [| seed; i; Hashtbl.hash "serve-compile-probe" |] in
  let p =
    rename
      (Printf.sprintf "probe_s%d_%d" seed i)
      (chain st Iterative.Diffusion2d ~shape:[ 256; 256 ] ~length:2)
  in
  point p ~verb:(Simulate (Random.State.int st 1_000_000)) ~width:None ~fuse:true

(* validate-campaign ------------------------------------------------ *)

type campaign_job = {
  base : job;
  plan : string;  (** A seeded fault plan in {!Fault_plan.to_string} syntax. *)
  schedules : int;
}

(* A seeded fault plan. Gaps and durations are drawn within 10% of
   fixed values, so the injected work, and with it a campaign's cost,
   stays about the same from seed to seed. *)
let fault_plan st =
  let burst kind ~gap ~dur =
    Fault_plan.Burst.make
      ~gap:(range st (gap * 9 / 10) gap)
      ~duration:(range st (dur * 9 / 10) dur)
      kind
  in
  Fault_plan.to_string
    (Fault_plan.plan
       ~bursts:
         [
           burst Fault_plan.Link_stall ~gap:240 ~dur:24;
           burst Fault_plan.Link_jitter ~gap:180 ~dur:16;
           burst Fault_plan.Mem_throttle ~gap:200 ~dur:20;
           burst Fault_plan.Write_backpressure ~gap:200 ~dur:20;
           burst Fault_plan.Unit_hiccup ~gap:150 ~dur:12;
         ]
       ())

let campaign ~seed =
  let st = rng seed "validate-campaign" in
  let cj ~label ?devices p =
    { base = job st ~label ?devices p; plan = fault_plan st; schedules = 6 }
  in
  let jobs =
    [
      cj ~label:"jacobi2d-96" (chain st Iterative.Jacobi2d ~shape:[ 96; 96 ] ~length:2);
      cj ~label:"diffusion2d-64" (chain st Iterative.Diffusion2d ~shape:[ 64; 64 ] ~length:3);
      cj ~label:"smoothing3d" (smoothing3d st ~shape:[ 8; 32; 64 ]);
      cj ~label:"shallow-water" (shallow_water ~shape:[ 64; 64 ]);
      cj ~label:"wave" (wave ~shape:[ 64; 64 ]);
      cj ~label:"hdiff-small" (hdiff ~shape:[ 4; 32; 32 ]);
      cj ~label:"hdiff-2dev" ~devices:2 (hdiff ~shape:[ 4; 32; 32 ]);
      cj ~label:"random-dag" (random_dag st ~name:"dag" ~shape:[ 32; 32 ] ~n:5);
      cj ~label:"laplace2d-128" (Iterative.single ~shape:[ 128; 128 ] Iterative.Laplace2d);
    ]
  in
  Array.to_list (shuffle st (Array.of_list jobs))

(* The determinism test's view: every input a seed produces, as lines. *)
let stream_digest ~seed =
  let b = Buffer.create 4096 in
  let line s = Buffer.add_string b s; Buffer.add_char b '\n' in
  List.iter
    (fun j -> line (Printf.sprintf "%s %d %s" j.label j.data_seed (Digest.to_hex (Digest.string j.source))))
    (oneshot ~seed);
  let grid = warm_grid ~seed in
  List.iter (fun p -> line p.line) grid;
  let next = zipf_stream ~seed ~points:(List.length grid) in
  for _ = 1 to 200 do line (string_of_int (next ())) done;
  for i = 0 to 15 do line (cold_request ~seed i) done;
  for i = 0 to 15 do line (sim_probe ~seed i).line done;
  List.iter
    (fun c -> line (Printf.sprintf "%s %s %s" c.base.label c.plan (Digest.to_hex (Digest.string c.base.source))))
    (campaign ~seed);
  Buffer.contents b
