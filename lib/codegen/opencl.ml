open Sf_ir
module Partition = Sf_mapping.Partition

type artifact = { device : int; filename : string; source : string }

let channel_name ~src ~dst = Printf.sprintf "ch_%s__%s" src dst

(* Print one expanded stencil as an autorun kernel. Registers of fields
   produced on another device pop from SMI instead of a channel. *)
let emit_stencil_kernel buf (k : Kernel.t) ~remote ~local_consumers ~remote_out ~writes_memory =
  let w = k.Kernel.width and name = k.Kernel.name in
  let add fmt = Printf.ksprintf (fun line -> Buffer.add_string buf line) fmt in
  add "__attribute__((max_global_work_dim(0)))\n";
  add "__attribute__((autorun))\n";
  add "__kernel void stencil_%s() {\n" name;
  List.iter
    (fun (r : Kernel.register) ->
      add "  float sr_%s[%d]; // flat span [%d, %d], read-ahead %d words\n" r.field r.size
        r.min_flat r.max_flat r.read_ahead)
    k.Kernel.registers;
  (* Lower-dimensional inputs are read from the program-scope prefetch
     arrays, filled by the load_* kernels before the pipeline starts. *)
  add "  for (long t = 0; t < %dL + %dL; ++t) {\n" k.Kernel.init_cycles k.Kernel.words;
  (* Shift phase (fully unrolled). *)
  List.iter
    (fun (r : Kernel.register) ->
      if r.size > w then begin
        add "    #pragma unroll\n";
        add "    for (int s = 0; s < %d; ++s) sr_%s[s] = sr_%s[s + %d];\n" (r.size - w) r.field
          r.field w
      end)
    k.Kernel.registers;
  (* Update phase: read one word from each active input stream. *)
  List.iter
    (fun (r : Kernel.register) ->
      let source =
        if remote r.field then Printf.sprintf "SMI_Pop(&smi_%s__%s)" r.field name
        else Printf.sprintf "read_channel_intel(%s)" (channel_name ~src:r.field ~dst:name)
      in
      add "    if (t >= %dL && t < %dL + %dL) {\n" r.first_read r.first_read k.Kernel.words;
      add "      #pragma unroll\n";
      add "      for (int v = 0; v < %d; ++v) sr_%s[%d + v] = %s;\n" w r.field (r.size - w) source;
      add "    }\n")
    k.Kernel.registers;
  (* Compute phase, with the multi-index of cell + v recovered for
     boundary predication. *)
  add "    if (t >= %dL) {\n" k.Kernel.init_cycles;
  add "      long cell = (t - %dL) * %d;\n" k.Kernel.init_cycles w;
  add "      #pragma unroll\n";
  add "      for (int v = 0; v < %d; ++v) {\n" w;
  List.iter
    (fun (d : Kernel.dim) ->
      add "        const long %s = ((cell + v) / %dL) %% %dL;\n" d.index d.stride d.extent)
    k.Kernel.dims;
  List.iter (fun (n, e) -> add "        const float %s = %s;\n" n e) k.Kernel.lets;
  add "        const float value_0 = %s;\n" k.Kernel.result;
  List.iter
    (fun consumer ->
      add "        write_channel_intel(%s, value_0);\n" (channel_name ~src:name ~dst:consumer))
    local_consumers;
  List.iter (fun consumer -> add "        SMI_Push(&smi_%s__%s, value_0);\n" name consumer) remote_out;
  if writes_memory then
    add "        write_channel_intel(%s, value_0);\n" (channel_name ~src:name ~dst:"mem");
  add "      }\n";
  add "    }\n";
  add "  }\n";
  add "}\n\n"

let emit_reader buf (p : Program.t) (f : Field.t) consumers =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let elems = Field.num_elements f ~shape:p.Program.shape in
  add "__kernel void read_%s(__global const float* restrict mem) {\n" f.Field.name;
  add "  for (long idx = 0; idx < %dL; ++idx) {\n" elems;
  add "    const float value = mem[idx];\n";
  List.iter
    (fun c ->
      add "    write_channel_intel(%s, value);\n" (channel_name ~src:f.Field.name ~dst:c))
    consumers;
  add "  }\n}\n\n"

let emit_writer buf (p : Program.t) output =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "__kernel void write_%s(__global float* restrict mem) {\n" output;
  add "  for (long idx = 0; idx < %dL; ++idx) {\n" (Program.cells p);
  add "    mem[idx] = read_channel_intel(%s);\n" (channel_name ~src:output ~dst:"mem");
  add "  }\n}\n\n"

let generate_unchecked ?partition (p : Program.t) =
  let partition = match partition with Some pt -> pt | None -> Partition.single_device p in
  let analysis = Sf_analysis.Delay_buffer.analyze p in
  let device_of = Partition.placement_fn partition in
  let rank = Program.rank p in
  let kernels = List.map (Kernel.expand p analysis) p.Program.stencils in
  List.map
    (fun device ->
      let buf = Buffer.create 4096 in
      let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
      add "// Generated by StencilFlow (OCaml reproduction) for device %d\n" device;
      add "// Program: %s, shape %s, W=%d\n" p.Program.name
        (Sf_support.Util.string_concat_map "x" string_of_int p.Program.shape)
        p.Program.vector_width;
      add "#pragma OPENCL EXTENSION cl_intel_channels : enable\n";
      add "#include \"smi.h\"\n\n";
      let is_local name = device_of name = device in
      let local_kernels = List.filter (fun k -> is_local k.Kernel.name) kernels in
      (* A stream whose producer is a stencil on another device arrives
         through SMI rather than a channel. *)
      let remote field =
        Option.is_some (Program.find_stencil p field) && device_of field <> device
      in
      (* Channel declarations: local edges with analysed depths. *)
      List.iter
        (fun (k : Kernel.t) ->
          List.iter
            (function
              | Kernel.Streamed { field; depth } when not (remote field) ->
                  add "channel float %s __attribute__((depth(%d)));\n"
                    (channel_name ~src:field ~dst:k.Kernel.name) depth
              | Kernel.Streamed _ | Kernel.Prefetched _ -> ())
            k.Kernel.inputs)
        local_kernels;
      List.iter
        (fun o ->
          if is_local o then
            add "channel float %s __attribute__((depth(%d)));\n" (channel_name ~src:o ~dst:"mem") 8)
        p.Program.outputs;
      (* SMI channel declarations for remote streams touching this device. *)
      List.iter
        (fun ((src, dst), (d1, d2)) ->
          if d1 = device || d2 = device then
            add "SMI_Channel smi_%s__%s; // rank %d -> rank %d\n" src dst d1 d2)
        partition.Partition.cross_edges;
      add "\n";
      (* Prefetch storage and loader kernels for lower-dimensional inputs
         used on this device; readers for streamed inputs. *)
      List.iter
        (fun (f : Field.t) ->
          let devices = List.assoc f.Field.name partition.Partition.replicated_inputs in
          if List.mem device devices && List.length (Program.field_axes p f.Field.name) < rank
          then begin
            let elems = max 1 (Field.num_elements f ~shape:p.Program.shape) in
            add "float pref_%s[%d]; // lower-dimensional input, prefetched once\n" f.Field.name
              elems;
            add "__kernel void load_%s(__global const float* restrict mem) {\n" f.Field.name;
            add "  for (int idx = 0; idx < %d; ++idx) pref_%s[idx] = mem[idx];\n" elems
              f.Field.name;
            add "}\n\n"
          end)
        p.Program.inputs;
      List.iter
        (fun (f : Field.t) ->
          let devices = List.assoc f.Field.name partition.Partition.replicated_inputs in
          if List.mem device devices && List.length (Program.field_axes p f.Field.name) = rank
          then begin
            let consumers =
              List.filter (fun c -> device_of c = device) (Program.consumers p f.Field.name)
            in
            if consumers <> [] then emit_reader buf p f consumers
          end)
        p.Program.inputs;
      (* Stencil kernels. *)
      List.iter
        (fun (k : Kernel.t) ->
          let consumers = Program.consumers p k.Kernel.name in
          emit_stencil_kernel buf k ~remote
            ~local_consumers:(List.filter (fun c -> device_of c = device) consumers)
            ~remote_out:(List.filter (fun c -> device_of c <> device) consumers)
            ~writes_memory:(List.exists (String.equal k.Kernel.name) p.Program.outputs))
        local_kernels;
      (* Writers for outputs produced here. *)
      List.iter (fun o -> if is_local o then emit_writer buf p o) p.Program.outputs;
      {
        device;
        filename = Printf.sprintf "%s_device%d.cl" p.Program.name device;
        source = Buffer.contents buf;
      })
    (Sf_support.Util.range partition.Partition.num_devices)

let host_source_unchecked ?partition (p : Program.t) =
  let partition = match partition with Some pt -> pt | None -> Partition.single_device p in
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "// Host code for %s over %d device(s)\n" p.Program.name partition.Partition.num_devices;
  add "#include <CL/cl.h>\n\nint main(void) {\n";
  List.iter
    (fun (f : Field.t) ->
      let devices = List.assoc f.Field.name partition.Partition.replicated_inputs in
      let bytes = Field.size_bytes f ~shape:p.Program.shape in
      List.iter
        (fun d ->
          add "  cl_mem buf_%s_dev%d = clCreateBuffer(ctx[%d], CL_MEM_READ_ONLY, %d, NULL, NULL);\n"
            f.Field.name d d bytes;
          add "  clEnqueueWriteBuffer(queue[%d], buf_%s_dev%d, CL_TRUE, 0, %d, host_%s, 0, NULL, NULL); // replicate\n"
            d f.Field.name d bytes f.Field.name)
        devices)
    p.Program.inputs;
  List.iter
    (fun o ->
      let d = Partition.placement_fn partition o in
      add "  cl_mem buf_%s = clCreateBuffer(ctx[%d], CL_MEM_WRITE_ONLY, %d, NULL, NULL);\n" o d
        (Program.cells p * Dtype.size_bytes p.Program.dtype))
    p.Program.outputs;
  add "  // launch reader/writer kernels; autorun stencil kernels start on configuration\n";
  List.iter
    (fun (f : Field.t) ->
      List.iter
        (fun d -> add "  clEnqueueTask(queue[%d], kernel_read_%s, 0, NULL, NULL);\n" d f.Field.name)
        (List.assoc f.Field.name partition.Partition.replicated_inputs))
    p.Program.inputs;
  List.iter
    (fun o ->
      let d = Partition.placement_fn partition o in
      add "  clEnqueueTask(queue[%d], kernel_write_%s, 0, NULL, NULL);\n" d o;
      add "  clEnqueueReadBuffer(queue[%d], buf_%s, CL_TRUE, 0, %d, host_%s, 0, NULL, NULL);\n" d o
        (Program.cells p * Dtype.size_bytes p.Program.dtype)
        o)
    p.Program.outputs;
  add "  return 0;\n}\n";
  Buffer.contents buf

module Diag = Sf_support.Diag

let validation_diags p =
  match Program.validate p with
  | Ok () -> []
  | Error msgs -> List.map (Diag.error ~code:Diag.Code.validation) msgs

let checked f p =
  match validation_diags p with
  | [] -> (
      try Ok (f p)
      with Invalid_argument m | Failure m ->
        Error [ Diag.errorf ~code:Diag.Code.codegen "code generation failed: %s" m ])
  | ds -> Error ds

let generate ?partition p = checked (generate_unchecked ?partition) p
let host_source ?partition p = checked (host_source_unchecked ?partition) p
