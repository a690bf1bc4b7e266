(** The batched evaluator for stencil bodies.

    A body compiles once into a flat instruction array over its
    hash-consed DAG ({!Sf_ir.Dag}): one instruction per distinct node, in
    topological order, registers reused by liveness. {!eval} then runs a
    block of cells with one dispatch per node, each a tight loop over
    unboxed [float array]s (X100-style vectorised interpretation). The
    caller's {!gather} fills each access for the block and tracks
    out-of-bounds cells itself. The semantics are {!Interp.eval_expr}'s,
    bit for bit: both [Select] arms evaluate, [And]/[Or] do not
    short-circuit, NaN and [-0.0] follow IEEE, and every node is
    evaluated, including let bindings nothing reads (their out-of-bounds
    reads still clear validity). *)

type t
(** A compiled body with its registers: evaluations must not overlap.
    Holds no DAG nodes, so it may move to another domain. *)

val compile : ?cells:int -> Sf_ir.Expr.body -> t
(** Compile for blocks of up to [cells] cells (default 64). Raises
    [Invalid_argument] on unbound or forward variable references and on
    calls with the wrong arity. *)

val accesses : t -> (string * int list) array
(** The body's distinct field accesses; a {!gather} receives the index
    into this array. *)

val registers : t -> int
(** Registers after liveness allocation: each holds one block. *)

type copy = step:int -> from:int -> float array -> int -> int -> int -> unit
(** [copy ~step ~from dst pos a b] writes cells [a] to [b - 1] (at
    least one) of a block to [dst.(pos + a) ..]: cell [k] reads storage
    element [from + step * k]. *)

val gather_row :
  extents:int array ->
  idx:int array ->
  axes:int array ->
  offs:int array ->
  strides:int array ->
  boundary:Sf_ir.Boundary.t ->
  oob:bool array ->
  copy:copy ->
  float array ->
  int ->
  int ->
  unit
(** The row-run rule of every gather, from a tensor or from a stencil
    unit's shift register. [gather_row ... ~copy dst pos n] fills one
    access for a block of [n] cells of the iteration space [extents],
    consecutive along its innermost axis from multi-index [idx]. The
    field spans program [axes], is stored with [strides] along them and
    is read at offsets [offs]. The cells reading inside the domain form
    one run, which [copy] writes. The others take the [boundary] value
    ([Copy] copies their own elements) and set their [oob] flags. An
    out-of-range offset along an outer axis puts the whole block out of
    the run. Allocates nothing. *)

val copy_tensor : float array -> copy
(** Copy from a tensor's row-major storage: a blit, or one element
    repeated when [step] is 0. *)

type gather = int -> float array -> int -> int -> unit
(** [gather a dst pos n] writes the values of access [a] for the block's
    [n] cells to [dst.(pos) .. dst.(pos + n - 1)]. *)

val eval : t -> n:int -> gather:gather -> float array -> int -> unit
(** [eval t ~n ~gather out pos] evaluates the body on a block of [n]
    cells and writes the results to [out.(pos) .. out.(pos + n - 1)].
    Gathers run in instruction order, once per distinct access. *)

type 'ctx fn = 'ctx -> float

val body : access:(field:string -> offsets:int list -> 'ctx fn) -> Sf_ir.Expr.body -> 'ctx fn
(** Per-cell adapter: compile the body and evaluate it as a block of one
    cell, gathering each distinct access once per call through the
    caller's access functions (resolved once, at compile time, in
    instruction order). The result is not reentrant. Raises like
    {!compile}. *)
