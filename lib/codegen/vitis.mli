(** Second code-generation backend: Xilinx-style HLS C++.

    The paper notes that "supporting Xilinx FPGAs, emitting RTL code
    directly, or targeting other spatial systems entirely will only
    require adapting the stencil library node expansion" (Sec. VI). This
    backend demonstrates that claim: it prints the same {!Kernel.expand}
    expansion as {!Opencl}, as Vitis-HLS C++ — one dataflow region whose
    processing elements communicate through [hls::stream] channels
    carrying the expansion's stream depths, with [PIPELINE II=1] loops and
    partitioned shift registers.

    Single-device only (Xilinx boards in the paper's comparison have no
    SMI equivalent); use {!Opencl} for multi-device programs. *)

val generate : Sf_ir.Program.t -> (string, Sf_support.Diag.t list) result
(** The full kernel source (streams, one function per processing element,
    and the [dataflow] top function). Validation problems surface as
    [SF0301] diagnostics; internal lowering failures as [SF0601]. *)

val top_function_name : Sf_ir.Program.t -> string
