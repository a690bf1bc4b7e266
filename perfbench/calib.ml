(* Host-speed calibration.

   This benchmark runs on shared hosts, where other tenants slow every
   operation, by up to 1.7x on the 2-core host it was built on, in
   phases lasting from seconds to minutes. The slow phases need not show
   as steal time, and they last longer than a run, so no statistic over
   one run's raw times removes them. A fixed probe, run between
   operations, slows down with the operations: over phases in which a
   Stencilflow simulation's time varied by 1.7x, its ratio to the
   probe's time stayed within 6% either way. So each operation's time is
   scaled by [reference] over the probe times around it, and the figures
   read as on a host where the probe takes [reference] seconds.

   The probe uses only the OCaml standard library, so no change to the
   program under test moves it. It allocates and chases pointers through
   a hash table of a few hundred kilobytes and does float arithmetic,
   which tracked the simulator better than array sweeps or allocation
   that dies young. It runs between operations, never inside one, and
   only when [interval] seconds have passed since the last probe. It
   runs on the domain that does the work: the calling domain for
   in-process jobs, a pool worker for the serve workloads (see
   Serve.probe). *)

let now = Stencilflow.Util.monotime

(* About the probe's time on the host this benchmark was built on, when
   no other tenant was busy. *)
let reference = 0.012
let interval = 0.2

(* Probes within [window] seconds of an operation's start scale it. *)
let window = 1.

let probe () =
  let t = Hashtbl.create 1024 and acc = ref 0. in
  for i = 0 to 100_000 do
    let k = (i * 7919) land 8191 in
    (match Hashtbl.find_opt t k with
    | Some l when List.compare_length_with l 5 < 0 -> Hashtbl.replace t k (Float.of_int i :: l)
    | _ -> Hashtbl.replace t k [ Float.of_int i ]);
    acc := !acc +. sqrt (Float.of_int i)
  done;
  ignore (Sys.opaque_identity !acc)

(* Start time and duration of every probe so far, newest first, and
   when the last one ended; written by whichever domain runs a probe. *)
let mu = Mutex.create ()
let probes = ref []
let last = ref neg_infinity

(* Run the probe now on the calling domain. The first run in a process
   only warms it up. *)
let run () =
  if Mutex.protect mu (fun () -> !last = neg_infinity) then probe ();
  let t0 = now () in
  probe ();
  let t1 = now () in
  Mutex.protect mu (fun () ->
      last := t1;
      probes := (t0, t1 -. t0) :: !probes)

(* Whether [interval] has passed since the last probe. *)
let due () = now () -. Mutex.protect mu (fun () -> !last) >= interval
let tick () = if due () then run ()

(* The median probe time so far. *)
let median () = Stats.median (List.map snd (Mutex.protect mu (fun () -> !probes)))

(* [seconds] measured from [at], scaled by [reference] over the median
   of the probes within [window] of [at], or of the nearest probe. *)
let scale ~at seconds =
  let probes = Mutex.protect mu (fun () -> !probes) in
  let near = List.filter (fun (t, _) -> Float.abs (t -. at) <= window) probes in
  let near =
    if near <> [] then near
    else
      match probes with
      | [] -> invalid_arg "Calib.scale: no probe has run"
      | p :: rest ->
          [
            List.fold_left
              (fun (bt, bd) (t, d) -> if Float.abs (t -. at) < Float.abs (bt -. at) then (t, d) else (bt, bd))
              p rest;
          ]
  in
  seconds *. reference /. Stats.median (List.map snd near)
