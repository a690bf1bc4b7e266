(* The seeded input generator is the benchmark's only source of
   randomness: one seed must yield a byte-identical input stream for
   every workload, and two seeds must differ. *)

open Perfbench

let () =
  let a = Gen.stream_digest ~seed:7 and b = Gen.stream_digest ~seed:7 in
  let c = Gen.stream_digest ~seed:8 in
  if a <> b then failwith "seed 7 produced two different input streams";
  if a = c then failwith "seeds 7 and 8 produced the same input stream";
  (* Each workload's inputs differ between seeds, not just one of them. *)
  let differs f = f ~seed:7 <> f ~seed:8 in
  if not (differs (fun ~seed -> List.map (fun (j : Gen.job) -> j.Gen.source) (Gen.oneshot ~seed)))
  then failwith "oneshot-sim inputs do not depend on the seed";
  if not (differs (fun ~seed -> List.map (fun (p : Gen.point) -> p.Gen.line) (Gen.warm_grid ~seed)))
  then failwith "serve-warm grid does not depend on the seed";
  if not (differs (fun ~seed -> List.init 20 (Gen.cold_request ~seed))) then
    failwith "serve-compile stream does not depend on the seed";
  if not (differs (fun ~seed -> List.map (fun (c : Gen.campaign_job) -> c.Gen.plan) (Gen.campaign ~seed)))
  then failwith "validate-campaign plans do not depend on the seed";
  (* Every serve-compile request in a run carries a distinct program. *)
  let lines = List.init 200 (Gen.cold_request ~seed:7) in
  if List.length (List.sort_uniq compare lines) <> 200 then
    failwith "serve-compile repeated a request"
