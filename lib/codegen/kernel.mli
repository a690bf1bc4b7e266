(** The expanded stencil library node (paper, Sec. V–VI, Fig. 12): the
    one lowered form of a stencil that every code-generation backend
    prints.

    A stencil becomes a pipelined loop over [init_cycles + words]
    iterations. Each iteration {e shifts} every input's shift register by
    one word, {e updates} the register's newest word from the input
    stream while the stream is live, and, once initialization is over,
    {e computes} one output word: the body, with every field access
    rewritten to a register tap (predicated on the boundary condition) or
    to an index into a prefetched lower-dimensional array.

    Everything the backends need to agree on is decided here: register
    sizes and read-ahead, the cycle each stream is first read, the index
    dimensions, tap offsets, boundary guards, prefetch indices and stream
    depths. A backend adds only its dialect (channel or stream syntax,
    pragmas, kernel signatures). *)

type register = {
  field : string;
  size : int;
      (** Words held: the read-ahead, one vector word, and the negative
          reach of the accesses. *)
  read_ahead : int;
      (** Words consumed before the first output, following the
          fill-the-buffer schedule of the analysis. *)
  first_read : int;  (** Cycle of the first update: [init_cycles - read_ahead]. *)
  min_flat : int;  (** Lowest accessed offset in memory order. *)
  max_flat : int;  (** Highest accessed offset in memory order. *)
}

type dim = {
  index : string;  (** Loop index name: [k], [j], [i] from the outside in. *)
  stride : int;  (** Cells between consecutive values of the index. *)
  extent : int;
}

type input =
  | Streamed of { field : string; depth : int }
      (** A full-rank input arriving one word per cycle through a channel
          of the analysed delay-buffer depth (at least 1). *)
  | Prefetched of string
      (** A lower-dimensional input read from its [pref_<field>] array. *)

type t = {
  name : string;  (** The stencil. *)
  width : int;  (** Vector width W: lanes per word. *)
  init_cycles : int;
  words : int;  (** Output words: cells / W. *)
  registers : register list;  (** One per streamed input, in input order. *)
  dims : dim list;
  inputs : input list;  (** In the order the body first reads them. *)
  lets : (string * string) list;
      (** Scheduled locals as (name, C expression): the source's let names,
          then every structurally shared node as a [__tN] temporary. *)
  result : string;  (** The output word's lane [v], as a C expression. *)
}

val expand : Sf_ir.Program.t -> Sf_analysis.Delay_buffer.t -> Sf_ir.Stencil.t -> t
(** Expand one stencil of a validated program, given the program's
    delay-buffer analysis. *)

val expression_to_c :
  access:(field:string -> offsets:int list -> string) -> Sf_ir.Expr.t -> string
(** Render an expression as C, delegating access rendering to the caller
    (exposed for tests). *)
