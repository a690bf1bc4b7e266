open Sf_ir

type result = { tensor : Tensor.t; valid : bool array }

exception Runtime_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Runtime_error m)) fmt
let truthy v = v <> 0.
let of_bool b = if b then 1. else 0.

let eval_func f args =
  match (f, args) with
  | Expr.Sqrt, [ x ] -> Float.sqrt x
  | Expr.Abs, [ x ] -> Float.abs x
  | Expr.Exp, [ x ] -> Float.exp x
  | Expr.Log, [ x ] -> Float.log x
  | Expr.Pow, [ x; y ] -> Float.pow x y
  | Expr.Min, [ x; y ] -> Float.min x y
  | Expr.Max, [ x; y ] -> Float.max x y
  | Expr.Sin, [ x ] -> Float.sin x
  | Expr.Cos, [ x ] -> Float.cos x
  | Expr.Floor, [ x ] -> Float.floor x
  | Expr.Ceil, [ x ] -> Float.ceil x
  | ( ( Expr.Sqrt | Expr.Abs | Expr.Exp | Expr.Log | Expr.Pow | Expr.Min | Expr.Max
      | Expr.Sin | Expr.Cos | Expr.Floor | Expr.Ceil ),
      _ ) ->
      fail "wrong arity for %s" (Expr.func_name f)

let eval_unop op x = match op with Expr.Neg -> -.x | Expr.Not -> of_bool (not (truthy x))

let eval_binop op a b =
  match op with
  | Expr.Add -> a +. b
  | Expr.Sub -> a -. b
  | Expr.Mul -> a *. b
  | Expr.Div -> a /. b
  | Expr.Lt -> of_bool (a < b)
  | Expr.Le -> of_bool (a <= b)
  | Expr.Gt -> of_bool (a > b)
  | Expr.Ge -> of_bool (a >= b)
  | Expr.Eq -> of_bool (a = b)
  | Expr.Ne -> of_bool (a <> b)
  | Expr.And -> of_bool (truthy a && truthy b)
  | Expr.Or -> of_bool (truthy a || truthy b)

let rec eval_expr ~lookup ~env expr =
  match expr with
  | Expr.Const c -> c
  | Expr.Access { field; offsets } -> lookup ~field ~offsets
  | Expr.Var v -> (
      match env v with Some value -> value | None -> fail "unbound variable %s" v)
  | Expr.Unary (op, x) -> eval_unop op (eval_expr ~lookup ~env x)
  | Expr.Binary (op, x, y) ->
      let a = eval_expr ~lookup ~env x in
      (* && and || are not short-circuit: the spatial pipeline evaluates
         both sides unconditionally, and so do we. *)
      let b = eval_expr ~lookup ~env y in
      eval_binop op a b
  | Expr.Select { cond; if_true; if_false } ->
      (* Both branches are evaluated (predication), then one selected. *)
      let c = eval_expr ~lookup ~env cond in
      let t = eval_expr ~lookup ~env if_true in
      let f = eval_expr ~lookup ~env if_false in
      if truthy c then t else f
  | Expr.Call (f, args) -> eval_func f (List.map (eval_expr ~lookup ~env) args)

let input_extent (p : Program.t) (f : Field.t) =
  match Field.extent f ~shape:p.Program.shape with [] -> [ 1 ] | extent -> extent

(* One access of a stencil body, resolved against its backing tensor:
   the copy from its storage, the program axes the field spans, the
   offset along each, the field's own row-major strides, and its
   boundary condition. *)
type source = {
  copy : Compile.copy;
  axes : int array;
  offs : int array;
  strides : int array;
  boundary : Boundary.t;
}

(* Stencils are evaluated through the batched evaluator (Compile), in
   blocks of at most [block_cells] cells along the innermost axis. *)
let block_cells = 64

let run_all (p : Program.t) ~inputs =
  Program.validate_exn p;
  let shape = p.Program.shape in
  let rank = Program.rank p in
  let store : (string, Tensor.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun f ->
      let expected = input_extent p f in
      match List.assoc_opt f.Field.name inputs with
      | None -> fail "missing input data for field %s" f.Field.name
      | Some t ->
          let extent = if t.Tensor.extent = [] then [ 1 ] else t.Tensor.extent in
          if extent <> expected then
            fail "input %s: expected extent [%s], got [%s]" f.Field.name
              (Sf_support.Util.string_concat_map "," string_of_int expected)
              (Sf_support.Util.string_concat_map "," string_of_int extent);
          Hashtbl.replace store f.Field.name { t with Tensor.extent })
    p.Program.inputs;
  let extents = Array.of_list shape in
  let inner = extents.(rank - 1) in
  (* The multi-index of the block's first cell, and which of the block's
     cells read out of bounds. *)
  let idx = Array.make rank 0 and oob = Array.make block_cells false in
  let source (s : Stencil.t) (field, offsets) =
    let data =
      match Hashtbl.find_opt store field with
      | Some t -> t.Tensor.data
      | None -> fail "field %s evaluated before its producer" field
    in
    let axes = Array.of_list (Program.field_axes p field) in
    let m = Array.length axes in
    let strides = Array.make m 1 in
    for d = m - 2 downto 0 do
      strides.(d) <- strides.(d + 1) * extents.(axes.(d + 1))
    done;
    let offs = Array.of_list offsets and boundary = Stencil.boundary_for s field in
    { copy = Compile.copy_tensor data; axes; offs; strides; boundary }
  in
  let gather sources a dst pos n =
    let s = sources.(a) in
    Compile.gather_row ~extents ~idx ~axes:s.axes ~offs:s.offs ~strides:s.strides
      ~boundary:s.boundary ~oob ~copy:s.copy dst pos n
  in
  let results = ref [] in
  let eval_stencil (s : Stencil.t) =
    let out = Tensor.create shape in
    let valid = Array.make (Program.cells p) true in
    let body = Compile.compile ~cells:block_cells s.Stencil.body in
    let gather = gather (Array.map (source s) (Compile.accesses body)) in
    Array.fill idx 0 rank 0;
    for row = 0 to (Program.cells p / inner) - 1 do
      idx.(rank - 1) <- 0;
      while idx.(rank - 1) < inner do
        let n = min block_cells (inner - idx.(rank - 1)) in
        let flat = (row * inner) + idx.(rank - 1) in
        Array.fill oob 0 n false;
        Compile.eval body ~n ~gather out.Tensor.data flat;
        if s.Stencil.shrink then
          for k = 0 to n - 1 do
            if oob.(k) then valid.(flat + k) <- false
          done;
        idx.(rank - 1) <- idx.(rank - 1) + n
      done;
      (* Advance the mixed-radix counter over the outer axes. *)
      let d = ref (rank - 2) in
      while !d > 0 && idx.(!d) = extents.(!d) - 1 do
        idx.(!d) <- 0;
        decr d
      done;
      if !d >= 0 then idx.(!d) <- idx.(!d) + 1
    done;
    Hashtbl.replace store s.Stencil.name out;
    results := (s.Stencil.name, { tensor = out; valid }) :: !results
  in
  List.iter eval_stencil (Program.topological_stencils p);
  List.rev !results

let run p ~inputs =
  let all = run_all p ~inputs in
  List.filter (fun (name, _) -> List.exists (String.equal name) p.Program.outputs) all

let random_inputs ?(seed = 42) (p : Program.t) =
  let state = Random.State.make [| seed |] in
  List.map
    (fun f ->
      let extent = input_extent p f in
      let t = Tensor.of_fn extent (fun _ -> Random.State.float state 2. -. 1.) in
      (f.Field.name, t))
    p.Program.inputs
