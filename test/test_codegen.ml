open Sf_ir
module Opencl = Sf_codegen.Opencl
module Dot = Sf_codegen.Dot
module Kernel = Sf_codegen.Kernel
module Partition = Sf_mapping.Partition
module E = Builder.E

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let check_contains source fragments =
  List.iter
    (fun f -> Alcotest.(check bool) ("contains " ^ f) true (contains source f))
    fragments

let generate_single p =
  match Fixtures.ok (Opencl.generate p) with
  | [ a ] -> a.Opencl.source
  | artifacts -> Alcotest.fail (Printf.sprintf "expected 1 artifact, got %d" (List.length artifacts))

let test_laplace_kernel_structure () =
  let src = generate_single (Fixtures.laplace2d ~shape:[ 8; 8 ] ()) in
  check_contains src
    [
      "#pragma OPENCL EXTENSION cl_intel_channels : enable";
      "__attribute__((autorun))";
      "__kernel void stencil_lap()";
      "float sr_a[25]";
      "#pragma unroll";
      "read_channel_intel(ch_a__lap)";
      "write_channel_intel(ch_lap__mem";
      "__kernel void read_a(";
      "__kernel void write_lap(";
    ];
  (* Boundary predication with the constant condition. *)
  check_contains src [ "? sr_a["; ": 0.0f" ]

let test_channel_depths_annotated () =
  let p = Fixtures.diamond ~shape:[ 8; 16 ] ~span:3 () in
  let src = generate_single p in
  (* The skip edge a -> c carries the 7-word delay buffer. *)
  check_contains src [ "channel float ch_a__c __attribute__((depth(14)))" ]

let test_copy_boundary_codegen () =
  let b = Builder.create ~name:"copybc" ~shape:[ 4; 8 ] () in
  Builder.input b "a";
  Builder.stencil b ~boundary:[ ("a", Boundary.Copy) ] "s" E.(acc "a" [ 0; -1 ] +% acc "a" [ 0; 1 ]);
  Builder.output b "s";
  let src = generate_single (Builder.finish b) in
  (* Copy falls back to the center tap, not a constant. *)
  check_contains src [ ": sr_a[1 + v])" ]

let test_lets_become_locals () =
  let p = Fixtures.kitchen_sink () in
  let src = generate_single p in
  check_contains src [ "const float t = " ]

let test_shared_nodes_become_temporaries () =
  (* Structural sharing (no lets in the source) is scheduled as __tN
     locals: the shared subexpression is computed once and referenced
     twice, in both backends. *)
  let b = Builder.create ~name:"shared" ~shape:[ 8; 8 ] () in
  Builder.input b "a";
  Builder.stencil b "s"
    Builder.E.(
      sqrt_ (acc "a" [ 0; 0 ] +% acc "a" [ 0; 1 ])
      *% sqrt_ (acc "a" [ 0; 0 ] +% acc "a" [ 0; 1 ]));
  Builder.output b "s";
  let p = Builder.finish b in
  let src = generate_single p in
  check_contains src [ "const float __t0 = "; "__t0 * __t0" ];
  check_contains
    (Fixtures.ok (Sf_codegen.Vitis.generate p))
    [ "const float __t0 = "; "__t0 * __t0" ]

let test_lower_dim_prefetch () =
  let p = Fixtures.kitchen_sink () in
  let src = generate_single p in
  check_contains src [ "float pref_crlat[6]"; "float pref_alpha[1]" ]

let test_vectorized_codegen () =
  let p = Sf_analysis.Vectorize.apply (Fixtures.laplace2d ~shape:[ 8; 8 ] ()) 4 in
  let src = generate_single p in
  check_contains src [ "for (int v = 0; v < 4; ++v)"; "float sr_a[32]" ]

let test_multi_device_smi () =
  let p = Fixtures.chain ~shape:[ 6; 10 ] ~n:4 () in
  let pt =
    {
      Partition.num_devices = 2;
      device_of = [ ("f1", 0); ("f2", 0); ("f3", 1); ("f4", 1) ];
      replicated_inputs = [ ("f0", [ 0 ]) ];
      cross_edges = [ (("f2", "f3"), (0, 1)) ];
      per_device_usage = [];
    }
  in
  match Fixtures.ok (Opencl.generate ~partition:pt p) with
  | [ dev0; dev1 ] ->
      check_contains dev0.Opencl.source [ "SMI_Push(&smi_f2__f3"; "__kernel void stencil_f2" ];
      check_contains dev1.Opencl.source [ "SMI_Pop(&smi_f2__f3"; "__kernel void stencil_f3" ];
      Alcotest.(check bool) "reader only on device 0" true
        (contains dev0.Opencl.source "__kernel void read_f0"
        && not (contains dev1.Opencl.source "__kernel void read_f0"));
      Alcotest.(check bool) "writer only on device 1" true
        (contains dev1.Opencl.source "__kernel void write_f4"
        && not (contains dev0.Opencl.source "__kernel void write_f4"))
  | artifacts -> Alcotest.fail (Printf.sprintf "expected 2 artifacts, got %d" (List.length artifacts))

let test_host_code () =
  let p = Fixtures.fork () in
  let host = Fixtures.ok (Opencl.host_source p) in
  check_contains host
    [ "clCreateBuffer"; "clEnqueueWriteBuffer"; "kernel_write_left"; "kernel_write_join" ]

let test_expression_to_c () =
  let access ~field ~offsets =
    Printf.sprintf "%s_%s" field (Sf_support.Util.string_concat_map "_" string_of_int offsets)
  in
  let e =
    Fixtures.ok1
      (Sf_frontend.Parser.parse_expr "a[0,1] * (b[0,0] + 2.0) < 1.0 ? sqrt(a[0,1]) : -b[0,0]")
  in
  Alcotest.(check string) "rendered"
    "((a_0_1 * (b_0_0 + 2.0f)) < 1.0f) ? sqrtf(a_0_1) : (-b_0_0)"
    (Kernel.expression_to_c ~access e)

let test_vitis_backend () =
  let p = Fixtures.diamond ~shape:[ 8; 16 ] ~span:3 () in
  let src = Fixtures.ok (Sf_codegen.Vitis.generate p) in
  check_contains src
    [
      "#include <hls_stream.h>";
      "#pragma HLS DATAFLOW";
      "#pragma HLS PIPELINE II=1";
      "void pe_b(";
      "hls::stream<float> s_a__c;";
      "#pragma HLS STREAM variable=s_a__c depth=14";
      "extern \"C\" void stencilflow_diamond(";
      "read_x(mem_x, s_x__a);";
      "write_c(s_c__mem, mem_c);";
    ]

let test_vitis_kitchen_sink () =
  (* Lower-dimensional inputs, copy boundaries and lets all lower. *)
  let src = Fixtures.ok (Sf_codegen.Vitis.generate (Fixtures.kitchen_sink ())) in
  check_contains src [ "float pref_crlat[6]"; "const float t ="; "#pragma HLS ARRAY_PARTITION" ]

let test_dot_export () =
  let p = Fixtures.diamond ~shape:[ 8; 16 ] ~span:3 () in
  let dot = Dot.of_program p in
  check_contains dot
    [ "digraph"; "\"x\" [shape=box"; "\"c\" [shape=ellipse, peripheries=2]"; "\"a\" -> \"c\" [label=\"14\"]" ]

(* Byte pins over the full generated sources: MD5 digests of every
   OpenCL artifact (file name and source) and the host source, on one
   device and, for programs with at least two stencils, split over two
   contiguous devices; and of the Vitis source. Any change to the emitted
   bytes shows up here; re-record only for an intended output change. *)
let pinned_programs =
  [
    ("laplace2d", Fixtures.laplace2d ());
    ("diamond", Fixtures.diamond ());
    ("chain", Fixtures.chain ());
    ("fork", Fixtures.fork ());
    ("kitchen_sink", Fixtures.kitchen_sink ());
  ]

let codegen_digests (p : Program.t) =
  let md5 s = Digest.to_hex (Digest.string s) in
  let artifacts ?partition () =
    md5
      (String.concat ""
         (List.map
            (fun (a : Opencl.artifact) -> a.Opencl.filename ^ "\n" ^ a.Opencl.source)
            (Fixtures.ok (Opencl.generate ?partition p))))
  in
  let host ?partition () = md5 (Fixtures.ok (Opencl.host_source ?partition p)) in
  let split =
    if List.length p.Program.stencils < 2 then []
    else begin
      let partition = Fixtures.ok1 (Partition.contiguous ~devices:2 p) in
      [ ("opencl-2dev", artifacts ~partition ()); ("host-2dev", host ~partition ()) ]
    end
  in
  [ ("opencl", artifacts ()); ("host", host ()) ]
  @ split
  @ [ ("vitis", md5 (Fixtures.ok (Sf_codegen.Vitis.generate p))) ]

let expected_digests =
  [
    ("laplace2d/W1/opencl", "3ab3cba073427be726cb40634468c8d4");
    ("laplace2d/W1/host", "9b418b1ff8f332139e0275ae863250bb");
    ("laplace2d/W1/vitis", "7a2820cd00fff616410b47e7087a6934");
    ("laplace2d/W2/opencl", "e97a5bb2f7c9775be0f3eb622a6e58af");
    ("laplace2d/W2/host", "9b418b1ff8f332139e0275ae863250bb");
    ("laplace2d/W2/vitis", "4d26298656c72cf54e5639a078a8e641");
    ("diamond/W1/opencl", "9da650d2f93fc612caa66314351026ad");
    ("diamond/W1/host", "2aedf1b15b19ec9d846dde2b77cfbe1a");
    ("diamond/W1/opencl-2dev", "6aeb94a95060ee22c3471fc10b0e989b");
    ("diamond/W1/host-2dev", "cbac5d5bf1f2482de5ca38833e8ef28b");
    ("diamond/W1/vitis", "9ee1ea11f122b967daa350b9b390dc33");
    ("diamond/W2/opencl", "1e0595dd3085d89671c8ad895e8c7821");
    ("diamond/W2/host", "2aedf1b15b19ec9d846dde2b77cfbe1a");
    ("diamond/W2/opencl-2dev", "e2b3456effa83aee02d7da50b0d89a1d");
    ("diamond/W2/host-2dev", "cbac5d5bf1f2482de5ca38833e8ef28b");
    ("diamond/W2/vitis", "429dbf631f249ffab793fb0110ca0aff");
    ("chain/W1/opencl", "3df9f563d72ea6aa4b3929a2cc86f9a2");
    ("chain/W1/host", "bd3130e750b73cdc9b5e6020bc3629f5");
    ("chain/W1/opencl-2dev", "d236717e6a0fc929a5568074d684da42");
    ("chain/W1/host-2dev", "851680ec2d56f0fe73ed4e70c84976e5");
    ("chain/W1/vitis", "a04688b08654e5ba560c54cb2fefc8fd");
    ("chain/W2/opencl", "88b64003e85f7a96b620b99150c16c3a");
    ("chain/W2/host", "bd3130e750b73cdc9b5e6020bc3629f5");
    ("chain/W2/opencl-2dev", "a8f0f37312ce1793fc34a0c9d1847b66");
    ("chain/W2/host-2dev", "851680ec2d56f0fe73ed4e70c84976e5");
    ("chain/W2/vitis", "6d3c7ad3fe7555fe76f68c0765b03704");
    ("fork/W1/opencl", "c93e89a8285ab6ea3891dd891508ed34");
    ("fork/W1/host", "59df596d47145fbf4dd6279628c9ca8e");
    ("fork/W1/opencl-2dev", "32060fbec2bed1279d4616d6c96ff46e");
    ("fork/W1/host-2dev", "ee3b3346b91625c512c72f7df08995c5");
    ("fork/W1/vitis", "734bfb4b437f812f910cdc9bacaf4f54");
    ("fork/W2/opencl", "cbae32548dbccbdfb8898f9803a07bed");
    ("fork/W2/host", "59df596d47145fbf4dd6279628c9ca8e");
    ("fork/W2/opencl-2dev", "cd8422d400d14e3e77166286825de8f4");
    ("fork/W2/host-2dev", "ee3b3346b91625c512c72f7df08995c5");
    ("fork/W2/vitis", "b86aa043017c2b74e99b961c7873d88c");
    ("kitchen_sink/W1/opencl", "903cfcee1e1587c5d6cb7215330d8055");
    ("kitchen_sink/W1/host", "117993e104a91ff9d4630fa634ff1e0b");
    ("kitchen_sink/W1/opencl-2dev", "858183de381835154fe2172245f86188");
    ("kitchen_sink/W1/host-2dev", "d94a6de40394641f8ccbc530b6a8fd42");
    ("kitchen_sink/W1/vitis", "2e7b1554cf1b1411d6d2fc50139255ab");
    ("kitchen_sink/W2/opencl", "3cebe5f4751472f3d5c0c3339216df58");
    ("kitchen_sink/W2/host", "117993e104a91ff9d4630fa634ff1e0b");
    ("kitchen_sink/W2/opencl-2dev", "31b346e860b817bcdcabd5546f9fb4bf");
    ("kitchen_sink/W2/host-2dev", "d94a6de40394641f8ccbc530b6a8fd42");
    ("kitchen_sink/W2/vitis", "7654a8530124f153802aa7dcec041c03");
  ]

let test_codegen_bytes_pinned () =
  let actual =
    List.concat_map
      (fun (name, p) ->
        List.concat_map
          (fun w ->
            List.map
              (fun (kind, digest) -> (Printf.sprintf "%s/W%d/%s" name w kind, digest))
              (codegen_digests (Sf_analysis.Vectorize.apply p w)))
          [ 1; 2 ])
      pinned_programs
  in
  (* SF_PIN_PRINT=1 prints the table to paste above. *)
  if Sys.getenv_opt "SF_PIN_PRINT" <> None then
    List.iter (fun (k, d) -> Printf.printf "    (%S, %S);\n" k d) actual;
  Alcotest.(check (list (pair string string))) "codegen digests" expected_digests actual

let suite =
  [
    Alcotest.test_case "laplace kernel structure (fig 12)" `Quick test_laplace_kernel_structure;
    Alcotest.test_case "channel depths annotated" `Quick test_channel_depths_annotated;
    Alcotest.test_case "copy boundary predication" `Quick test_copy_boundary_codegen;
    Alcotest.test_case "lets lower to locals" `Quick test_lets_become_locals;
    Alcotest.test_case "shared nodes lower to __tN temporaries" `Quick
      test_shared_nodes_become_temporaries;
    Alcotest.test_case "lower-dim inputs prefetch" `Quick test_lower_dim_prefetch;
    Alcotest.test_case "vectorized kernels" `Quick test_vectorized_codegen;
    Alcotest.test_case "multi-device SMI emission (sec 6B)" `Quick test_multi_device_smi;
    Alcotest.test_case "host code" `Quick test_host_code;
    Alcotest.test_case "expression rendering" `Quick test_expression_to_c;
    Alcotest.test_case "vitis backend structure" `Quick test_vitis_backend;
    Alcotest.test_case "vitis backend kitchen sink" `Quick test_vitis_kitchen_sink;
    Alcotest.test_case "graphviz export" `Quick test_dot_export;
    Alcotest.test_case "generated sources pinned by digest" `Quick test_codegen_bytes_pinned;
  ]
