(* The Stencil library node expansion (paper, Fig. 12) as both code
   generators print it: Kernel.expand. *)
open Sf_ir
module Kernel = Sf_codegen.Kernel

let expand p name =
  let analysis = Sf_analysis.Delay_buffer.analyze p in
  Kernel.expand p analysis (Option.get (Program.find_stencil p name))

let test_expansion () =
  let p = Fixtures.laplace2d ~shape:[ 8; 8 ] () in
  let k = expand p (List.hd p.Program.stencils).Stencil.name in
  Alcotest.(check int) "one output word per cell" 64 k.Kernel.words;
  (* The laplace accesses span [-I, +I]: the register both backends
     declare for a holds the 2I read-ahead, one word and the negative
     reach I: 16 + 1 + 8. *)
  match k.Kernel.registers with
  | [ r ] ->
      Alcotest.(check string) "register field" "a" r.Kernel.field;
      Alcotest.(check int) "sr_a size" 25 r.Kernel.size
  | rs -> Alcotest.fail (Printf.sprintf "expected 1 register, got %d" (List.length rs))

let test_expansion_pipeline_phases () =
  (* Diamond: b has an initialization phase of 6 cycles (span 3 on both
     sides), and the skip edge a -> c carries b's latency. *)
  let p = Fixtures.diamond ~shape:[ 8; 16 ] ~span:3 () in
  Alcotest.(check int) "b init cycles" 6 (expand p "b").Kernel.init_cycles;
  Alcotest.(check bool) "stream a -> c depth 14" true
    (List.mem (Kernel.Streamed { field = "a"; depth = 14 }) (expand p "c").Kernel.inputs)

let suite =
  [
    Alcotest.test_case "library node expansion (fig 12)" `Quick test_expansion;
    Alcotest.test_case "pipeline scope init phases" `Quick test_expansion_pipeline_phases;
  ]
