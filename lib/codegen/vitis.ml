open Sf_ir

let top_function_name (p : Program.t) = "stencilflow_" ^ p.Program.name

let stream_name ~src ~dst = Printf.sprintf "s_%s__%s" src dst

let streamed (k : Kernel.t) =
  List.filter_map
    (function Kernel.Streamed { field; depth } -> Some (field, depth) | Kernel.Prefetched _ -> None)
    k.Kernel.inputs

(* Print one expanded stencil as a pipelined processing element. *)
let emit_stencil_pe buf (k : Kernel.t) ~consumers ~writes_memory =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let name = k.Kernel.name and w = k.Kernel.width in
  let stream_params =
    List.map (fun (field, _) -> Printf.sprintf "hls::stream<float>& in_%s" field) (streamed k)
    @ List.map (fun c -> Printf.sprintf "hls::stream<float>& out_%s" c) consumers
    @ (if writes_memory then [ Printf.sprintf "hls::stream<float>& out_mem_%s" name ] else [])
  in
  add "void pe_%s(%s) {\n" name (String.concat ", " stream_params);
  List.iter
    (fun (r : Kernel.register) ->
      add "  float sr_%s[%d];\n" r.field r.size;
      add "#pragma HLS ARRAY_PARTITION variable=sr_%s complete\n" r.field)
    k.Kernel.registers;
  add "loop_%s:\n" name;
  add "  for (long t = 0; t < %dL + %dL; ++t) {\n" k.Kernel.init_cycles k.Kernel.words;
  add "#pragma HLS PIPELINE II=1\n";
  (* Shift + update. *)
  List.iter
    (fun (r : Kernel.register) ->
      if r.size > w then
        add "    for (int s = 0; s < %d; ++s) sr_%s[s] = sr_%s[s + %d];\n" (r.size - w) r.field
          r.field w;
      add "    if (t >= %dL && t < %dL + %dL)\n" r.first_read r.first_read k.Kernel.words;
      add "      for (int v = 0; v < %d; ++v) sr_%s[%d + v] = in_%s.read();\n" w r.field
        (r.size - w) r.field)
    k.Kernel.registers;
  add "    if (t >= %dL) {\n" k.Kernel.init_cycles;
  add "      long cell = (t - %dL) * %d;\n" k.Kernel.init_cycles w;
  add "      for (int v = 0; v < %d; ++v) {\n" w;
  List.iter
    (fun (d : Kernel.dim) ->
      add "        const long %s = ((cell + v) / %dL) %% %dL;\n" d.index d.stride d.extent)
    k.Kernel.dims;
  List.iter (fun (n, e) -> add "        const float %s = %s;\n" n e) k.Kernel.lets;
  add "        const float value = %s;\n" k.Kernel.result;
  List.iter (fun c -> add "        out_%s.write(value);\n" c) consumers;
  if writes_memory then add "        out_mem_%s.write(value);\n" name;
  add "      }\n    }\n  }\n}\n\n"

let generate_unchecked (p : Program.t) =
  let analysis = Sf_analysis.Delay_buffer.analyze p in
  let kernels = List.map (Kernel.expand p analysis) p.Program.stencils in
  let writes_memory (k : Kernel.t) = List.exists (String.equal k.Kernel.name) p.Program.outputs in
  let rank = Program.rank p in
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "// Generated by StencilFlow (OCaml reproduction), Vitis HLS backend\n";
  add "// Program: %s\n" p.Program.name;
  add "#include <hls_stream.h>\n#include <hls_math.h>\n\n";
  (* Lower-dimensional inputs live in program-scope arrays, loaded from
     their memory buffers by the top function before the dataflow region
     starts. *)
  List.iter
    (fun (f : Field.t) ->
      if Field.rank f < rank then
        add "float pref_%s[%d];\n" f.Field.name (max 1 (Field.num_elements f ~shape:p.Program.shape)))
    p.Program.inputs;
  add "\n";
  (* Processing elements. *)
  List.iter
    (fun (k : Kernel.t) ->
      emit_stencil_pe buf k
        ~consumers:(Program.consumers p k.Kernel.name)
        ~writes_memory:(writes_memory k))
    kernels;
  (* Readers and writers. *)
  List.iter
    (fun (f : Field.t) ->
      if Field.rank f = rank then begin
        let consumers = Program.consumers p f.Field.name in
        add "void read_%s(const float* mem%s) {\n" f.Field.name
          (String.concat ""
             (List.map (fun c -> Printf.sprintf ", hls::stream<float>& out_%s" c) consumers));
        add "  for (long idx = 0; idx < %dL; ++idx) {\n" (Field.num_elements f ~shape:p.Program.shape);
        add "#pragma HLS PIPELINE II=1\n";
        List.iter (fun c -> add "    out_%s.write(mem[idx]);\n" c) consumers;
        add "  }\n}\n\n"
      end)
    p.Program.inputs;
  List.iter
    (fun o ->
      add "void write_%s(hls::stream<float>& in, float* mem) {\n" o;
      add "  for (long idx = 0; idx < %dL; ++idx) {\n" (Program.cells p);
      add "#pragma HLS PIPELINE II=1\n";
      add "    mem[idx] = in.read();\n  }\n}\n\n" )
    p.Program.outputs;
  (* Top-level dataflow region: every input (streamed or prefetched) and
     every output arrives as a memory pointer, in declaration order. *)
  let mem_args =
    List.map (fun (f : Field.t) -> Printf.sprintf "const float* mem_%s" f.Field.name)
      p.Program.inputs
    @ List.map (fun o -> Printf.sprintf "float* mem_%s" o) p.Program.outputs
  in
  add "extern \"C\" void %s(%s) {\n" (top_function_name p) (String.concat ", " mem_args);
  List.iter
    (fun (f : Field.t) ->
      if Field.rank f < rank then begin
        let elems = max 1 (Field.num_elements f ~shape:p.Program.shape) in
        add "  for (int i = 0; i < %d; ++i) pref_%s[i] = mem_%s[i];\n" elems f.Field.name
          f.Field.name
      end)
    p.Program.inputs;
  add "#pragma HLS DATAFLOW\n";
  (* Stream declarations carry the expansion's stream depths. *)
  List.iter
    (fun (k : Kernel.t) ->
      List.iter
        (fun (field, depth) ->
          let stream = stream_name ~src:field ~dst:k.Kernel.name in
          add "  hls::stream<float> %s;\n" stream;
          add "#pragma HLS STREAM variable=%s depth=%d\n" stream depth)
        (streamed k))
    kernels;
  List.iter
    (fun o ->
      add "  hls::stream<float> %s;\n" (stream_name ~src:o ~dst:"mem");
      add "#pragma HLS STREAM variable=%s depth=8\n" (stream_name ~src:o ~dst:"mem"))
    p.Program.outputs;
  (* Invocations. *)
  List.iter
    (fun (f : Field.t) ->
      if Field.rank f = rank then
        add "  read_%s(mem_%s%s);\n" f.Field.name f.Field.name
          (String.concat ""
             (List.map
                (fun c -> ", " ^ stream_name ~src:f.Field.name ~dst:c)
                (Program.consumers p f.Field.name))))
    p.Program.inputs;
  List.iter
    (fun (k : Kernel.t) ->
      let name = k.Kernel.name in
      let ins = List.map (fun (field, _) -> stream_name ~src:field ~dst:name) (streamed k) in
      let outs =
        List.map (fun c -> stream_name ~src:name ~dst:c) (Program.consumers p name)
        @ if writes_memory k then [ stream_name ~src:name ~dst:"mem" ] else []
      in
      add "  pe_%s(%s);\n" name (String.concat ", " (ins @ outs)))
    kernels;
  List.iter
    (fun o -> add "  write_%s(%s, mem_%s);\n" o (stream_name ~src:o ~dst:"mem") o)
    p.Program.outputs;
  add "}\n";
  Buffer.contents buf

module Diag = Sf_support.Diag

let generate (p : Program.t) =
  match Program.validate p with
  | Ok () -> (
      try Ok (generate_unchecked p)
      with Invalid_argument m | Failure m ->
        Error [ Diag.errorf ~code:Diag.Code.codegen "code generation failed: %s" m ])
  | Error msgs -> Error (List.map (Diag.error ~code:Diag.Code.validation) msgs)
