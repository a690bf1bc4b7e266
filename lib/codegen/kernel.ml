open Sf_ir
module Internal_buffer = Sf_analysis.Internal_buffer
module Delay_buffer = Sf_analysis.Delay_buffer

type register = {
  field : string;
  size : int;
  read_ahead : int;
  first_read : int;
  min_flat : int;
  max_flat : int;
}

type dim = { index : string; stride : int; extent : int }
type input = Streamed of { field : string; depth : int } | Prefetched of string

type t = {
  name : string;
  width : int;
  init_cycles : int;
  words : int;
  registers : register list;
  dims : dim list;
  inputs : input list;
  lets : (string * string) list;
  result : string;
}

let func_c_name = function
  | Expr.Sqrt -> "sqrtf"
  | Expr.Abs -> "fabsf"
  | Expr.Exp -> "expf"
  | Expr.Log -> "logf"
  | Expr.Pow -> "powf"
  | Expr.Min -> "fminf"
  | Expr.Max -> "fmaxf"
  | Expr.Sin -> "sinf"
  | Expr.Cos -> "cosf"
  | Expr.Floor -> "floorf"
  | Expr.Ceil -> "ceilf"

let binop_c = function
  | Expr.Add -> "+"
  | Expr.Sub -> "-"
  | Expr.Mul -> "*"
  | Expr.Div -> "/"
  | Expr.Lt -> "<"
  | Expr.Le -> "<="
  | Expr.Gt -> ">"
  | Expr.Ge -> ">="
  | Expr.Eq -> "=="
  | Expr.Ne -> "!="
  | Expr.And -> "&&"
  | Expr.Or -> "||"

let float_literal c =
  if Float.is_integer c && Float.abs c < 1e15 then Printf.sprintf "%.1ff" c
  else Printf.sprintf "%.9gf" c

let rec expression_to_c ~access expr =
  let atom e =
    match e with
    | Expr.Const _ | Expr.Var _ | Expr.Access _ | Expr.Call _ -> expression_to_c ~access e
    | Expr.Unary _ | Expr.Binary _ | Expr.Select _ ->
        "(" ^ expression_to_c ~access e ^ ")"
  in
  match expr with
  | Expr.Const c -> float_literal c
  | Expr.Var v -> v
  | Expr.Access { field; offsets } -> access ~field ~offsets
  | Expr.Unary (Expr.Neg, x) -> "-" ^ atom x
  | Expr.Unary (Expr.Not, x) -> "!" ^ atom x
  | Expr.Binary (op, x, y) -> Printf.sprintf "%s %s %s" (atom x) (binop_c op) (atom y)
  | Expr.Select { cond; if_true; if_false } ->
      Printf.sprintf "%s ? %s : %s" (atom cond) (atom if_true) (atom if_false)
  | Expr.Call (f, args) ->
      Printf.sprintf "%s(%s)" (func_c_name f)
        (Sf_support.Util.string_concat_map ", " (expression_to_c ~access) args)

(* Schedule a body's hash-consed DAG for emission: the programmer's let
   names are preserved, and every structurally shared non-leaf node is
   materialized as a [__tN] local so the generated kernel computes each
   shared value once and fans it out explicitly, instead of relying on
   the vendor compiler's CSE. *)
let scheduled_body (b : Expr.body) =
  let named, root = Dag.of_body_named b in
  Dag.extract ~min_size:2 ~prefix:"__t" ~keep:named root

let dim_names = [ "k"; "j"; "i" ]

let expand (p : Program.t) analysis (s : Stencil.t) =
  let w = p.Program.vector_width in
  let shape = p.Program.shape in
  let rank = Program.rank p in
  let init_cycles = (Delay_buffer.node_info analysis s.Stencil.name).Delay_buffer.init_cycles in
  (* Register sizing consistent with the conservative fill-the-buffer
     schedule (read_ahead words are consumed ahead of the first output):
     at compute time the newest element sits read_ahead*W + W - 1 ahead
     of the lane-0 center, so the register must retain that read-ahead
     plus any negative reach. The tap for flat offset o, lane v is
     size - W - read_ahead*W + o + v. *)
  let register (b : Internal_buffer.t) =
    let read_ahead = Sf_support.Util.ceil_div b.init_elements (max 1 w) in
    {
      field = b.field;
      size = (read_ahead * w) + w + max 0 (-b.min_flat);
      read_ahead;
      first_read = init_cycles - read_ahead;
      min_flat = b.min_flat;
      max_flat = b.max_flat;
    }
  in
  let registers = List.map register (Internal_buffer.of_stencil p s) in
  let dims =
    List.map2
      (fun index (stride, extent) -> { index; stride; extent })
      (List.filteri (fun i _ -> i >= 3 - rank) dim_names)
      (List.combine (Program.strides p) shape)
  in
  let index axis = (List.nth dims axis).index in
  let tap r offsets =
    Printf.sprintf "sr_%s[%d + v]" r.field
      (r.size - w - (r.read_ahead * w) + Internal_buffer.flatten_offset ~shape offsets)
  in
  let access ~field ~offsets =
    match List.find_opt (fun r -> r.field = field) registers with
    | Some r ->
        let guards =
          List.concat
            (List.mapi
               (fun d o ->
                 if o = 0 then []
                 else
                   [
                     Printf.sprintf "(%s + (%d) >= 0 && %s + (%d) < %d)" (index d) o (index d) o
                       (List.nth shape d);
                   ])
               offsets)
        in
        if guards = [] then tap r offsets
        else begin
          let fallback =
            match Stencil.boundary_for s field with
            | Boundary.Constant c -> float_literal c
            | Boundary.Copy -> tap r (List.map (fun _ -> 0) offsets)
          in
          Printf.sprintf "(%s ? %s : %s)" (String.concat " && " guards) (tap r offsets) fallback
        end
    | None ->
        (* A lower-dimensional input: the row-major flattening over the
           axes it spans (scalars index 0). *)
        let axes = Program.field_axes p field in
        if axes = [] then Printf.sprintf "pref_%s[0]" field
        else
          Printf.sprintf "pref_%s[%s]" field
            (Sf_support.Util.string_concat_map " + "
               (fun (axis, o) ->
                 let stride =
                   List.fold_left
                     (fun acc a -> if a > axis then acc * List.nth shape a else acc)
                     1 axes
                 in
                 Printf.sprintf "(%s + (%d)) * %d" (index axis) o stride)
               (List.combine axes offsets))
  in
  let inputs =
    List.map
      (fun field ->
        if List.length (Program.field_axes p field) = rank then
          Streamed
            {
              field;
              depth = max 1 (Delay_buffer.buffer_for analysis ~src:field ~dst:s.Stencil.name);
            }
        else Prefetched field)
      (Stencil.input_fields s)
  in
  let body = scheduled_body s.Stencil.body in
  {
    name = s.Stencil.name;
    width = w;
    init_cycles;
    words = Program.cells p / w;
    registers;
    dims;
    inputs;
    lets = List.map (fun (n, e) -> (n, expression_to_c ~access e)) body.Expr.lets;
    result = expression_to_c ~access body.Expr.result;
  }
