(** Code generation to Intel-FPGA-style annotated OpenCL (paper, Sec. VI).

    One source file is emitted per device. Each stencil becomes an
    [autorun] kernel printing its {!Kernel.expand} expansion (Fig. 12): a
    fully unrolled shift phase over the field's shift register, an update
    phase reading the input channels, and a compute phase with boundary
    predication and a guarded output write. Channels carry the
    expansion's stream depths; edges crossing devices are emitted as SMI
    push/pop calls instead of channel operations (Sec. VI-B). Dedicated reader
    (prefetcher) and writer kernels move data between DRAM and streams.

    The output is not synthesized in this reproduction (no vendor
    toolchain); its structure is verified by tests and it documents
    exactly what the lowering decides: channel depths, tap offsets,
    predication, initialization and drain scheduling. *)

type artifact = {
  device : int;
  filename : string;
  source : string;
}

val generate :
  ?partition:Sf_mapping.Partition.t ->
  Sf_ir.Program.t ->
  (artifact list, Sf_support.Diag.t list) result
(** Kernel source per device (a single artifact when unpartitioned).
    Validation problems surface as [SF0301] diagnostics; internal
    lowering failures as [SF0601]. *)

val host_source :
  ?partition:Sf_mapping.Partition.t ->
  Sf_ir.Program.t ->
  (string, Sf_support.Diag.t list) result
(** Host-side C-style pseudo code: buffer allocation, replication of
    inputs to each device, kernel launch, and result copy-back. *)
