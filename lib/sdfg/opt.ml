open Sf_ir

(* Constants fold with the reference interpreter's operators, so a
   folded value cannot disagree with the interpreter or the batched
   evaluator: NaN compares Eq-false and Ne-true. *)
module Interp = Sf_reference.Interp

(* Constant folding as a linear pass over the DAG: each distinct node is
   folded exactly once, however often the inlined tree repeats it. The
   float guards [c = 0.] / [c = 1.] deliberately use OCaml's [=] so -0.0
   triggers the zero identities exactly like the float patterns of the
   old tree-walking fold did (and NaN never matches). *)
let fold_dag ?(preserve_access_effects = false) root =
  let memo : (int, Dag.t) Hashtbl.t = Hashtbl.create 64 in
  let rec go t =
    match Hashtbl.find_opt memo (Dag.id t) with
    | Some t' -> t'
    | None ->
        let t' =
          match Dag.view t with
          | Dag.Const _ | Dag.Access _ | Dag.Var _ -> t
          | Dag.Unary (op, x) -> (
              let x' = go x in
              match Dag.view x' with
              | Dag.Const c -> Dag.const (Interp.eval_unop op c)
              | _ -> Dag.unary op x')
          | Dag.Binary (op, x, y) -> (
              let x' = go x and y' = go y in
              match (op, Dag.view x', Dag.view y') with
              | _, Dag.Const a, Dag.Const b -> Dag.const (Interp.eval_binop op a b)
              (* IEEE-safe identities only: adding/subtracting zero and
                 multiplying/dividing by one preserve NaN and Inf
                 propagation. *)
              | Expr.Add, Dag.Const c, _ when c = 0. -> y'
              | Expr.Add, _, Dag.Const c when c = 0. -> x'
              | Expr.Sub, _, Dag.Const c when c = 0. -> x'
              | Expr.Mul, Dag.Const c, _ when c = 1. -> y'
              | Expr.Mul, _, Dag.Const c when c = 1. -> x'
              | Expr.Div, _, Dag.Const c when c = 1. -> x'
              | _, _, _ -> Dag.binary op x' y')
          | Dag.Select { cond; if_true; if_false } -> (
              let cond' = go cond in
              match Dag.view cond' with
              (* Folding a constant-condition select drops the unselected
                 branch. Under "shrink" semantics the dropped branch's
                 (predicated, possibly out-of-bounds) accesses still
                 affect the validity mask, so the fold is only legal when
                 that branch reads nothing or the caller asked for
                 pure-value semantics. *)
              | Dag.Const c
                when (not preserve_access_effects)
                     || Dag.accesses (if c <> 0. then if_false else if_true) = [] ->
                  go (if c <> 0. then if_true else if_false)
              | _ ->
                  Dag.select ~cond:cond' ~if_true:(go if_true) ~if_false:(go if_false))
          | Dag.Call (f, args) -> (
              let args' = List.map go args in
              let consts =
                List.filter_map
                  (fun a -> match Dag.view a with Dag.Const c -> Some c | _ -> None)
                  args'
              in
              if List.length consts = List.length args' then
                match Interp.eval_func f consts with
                | v -> Dag.const v
                | exception Interp.Runtime_error _ -> Dag.call f args'
              else Dag.call f args')
        in
        Hashtbl.replace memo (Dag.id t) t';
        t'
  in
  go root

let fold_constants ?preserve_access_effects expr =
  Dag.to_expr (fold_dag ?preserve_access_effects (Dag.of_expr expr))

(* Compat shim: CSE is now hash-consing + let-extraction on the DAG. No
   string keys, no repeated [Expr.size] walks, and a subtree occurring
   many times through one shared parent is bound once, not per textual
   occurrence. *)
let cse ?min_size (body : Expr.body) = Dag.to_body ?min_size (Dag.of_body body)

let optimize_stencil ?min_size (s : Stencil.t) =
  (* Shrink stencils must keep predicated accesses alive (they feed the
     validity mask) even when a constant condition never selects them. *)
  let root = Dag.of_body s.Stencil.body in
  let folded = fold_dag ~preserve_access_effects:s.Stencil.shrink root in
  let s = { s with Stencil.body = Dag.extract ?min_size folded } in
  (* Folding can eliminate every access to a field (a constant-condition
     select, for instance); drop boundary conditions for fields that are
     no longer read. *)
  let still_read = Stencil.input_fields s in
  {
    s with
    Stencil.boundary =
      List.filter (fun (f, _) -> List.exists (String.equal f) still_read) s.Stencil.boundary;
  }

type report = {
  ops_before : int;
  ops_after : int;
  tree_ops_after : int;
  shared_nodes : int;
}

let flops_saved r = r.tree_ops_after - r.ops_after

let work_flops (p : Program.t) =
  List.fold_left
    (fun acc (s : Stencil.t) ->
      acc + Expr.flop_count (Dag.work_profile (Dag.of_body s.Stencil.body)))
    0 p.Program.stencils

let tree_flops (p : Program.t) =
  let sat a b = let s = a + b in if s < a || s < b then max_int else s in
  List.fold_left
    (fun acc (s : Stencil.t) ->
      sat acc (Expr.flop_count (Dag.tree_profile (Dag.of_body s.Stencil.body))))
    0 p.Program.stencils

let shared_count (p : Program.t) =
  List.fold_left
    (fun acc (s : Stencil.t) -> acc + Dag.shared_nodes (Dag.of_body s.Stencil.body))
    0 p.Program.stencils

let optimize_with_report ?min_size (p : Program.t) =
  let ops_before = work_flops p in
  let stencils = List.map (optimize_stencil ?min_size) p.Program.stencils in
  (* Dead-code elimination: folding may disconnect stencils entirely;
     remove (transitively) everything that is neither an output nor read
     by a surviving stencil. *)
  let rec prune stencils =
    let read = List.concat_map (fun (s : Stencil.t) -> Stencil.input_fields s) stencils in
    let live (s : Stencil.t) =
      List.exists (String.equal s.Stencil.name) p.Program.outputs
      || List.exists (String.equal s.Stencil.name) read
    in
    let survivors = List.filter live stencils in
    if List.length survivors = List.length stencils then stencils else prune survivors
  in
  let stencils = prune stencils in
  let read = List.concat_map (fun (s : Stencil.t) -> Stencil.input_fields s) stencils in
  let inputs =
    List.filter (fun f -> List.exists (String.equal f.Field.name) read) p.Program.inputs
  in
  let optimized = { p with Program.stencils; inputs } in
  Program.validate_exn optimized;
  let report =
    {
      ops_before;
      ops_after = work_flops optimized;
      tree_ops_after = tree_flops optimized;
      shared_nodes = shared_count optimized;
    }
  in
  (optimized, report)

let optimize ?min_size (p : Program.t) = fst (optimize_with_report ?min_size p)
