(** NestDim (paper, Sec. V-A, Fig. 10): reschedule parametrically
    parallel stencils over a new outer dimension, so that a 2D program
    becomes a 3D program whose original inputs span only the inner axes.
    {!Pipeline.nest} runs it as a pipeline pass. *)

val nest_dim : Sf_ir.Program.t -> extent:int -> Sf_ir.Program.t
(** Lift a program to one more (outer) dimension of the given extent:
    every stencil iterates the new axis, every offset list gains a
    leading 0, and original input fields span only the original axes, so
    each outer slice computes exactly what the original program computed
    (validated by tests). Raises [Invalid_argument] on 3D inputs (the DSL
    supports at most 3 dimensions). *)
