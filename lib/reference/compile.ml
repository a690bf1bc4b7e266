open Sf_ir

(* One instruction per distinct DAG node; operands and destinations are
   register numbers. *)
type instr =
  | Const of int * float
  | Gather of int * int  (* register, access index *)
  | Unary of Expr.unop * int * int
  | Binary of Expr.binop * int * int * int
  | Select of int * int * int * int  (* register, cond, if_true, if_false *)
  | Call of Expr.func * int * int * int  (* a unary function reads its operand twice *)

type t = {
  code : instr array;
  accesses : (string * int list) array;
  regs : float array array;  (* one block of cells per register *)
  root : int;
}

type gather = int -> float array -> int -> int -> unit

let accesses t = t.accesses
let registers t = Array.length t.regs

let children n =
  match Dag.view n with
  | Dag.Const _ | Dag.Access _ | Dag.Var _ -> []
  | Dag.Unary (_, x) -> [ x ]
  | Dag.Binary (_, x, y) -> [ x; y ]
  | Dag.Select { cond; if_true; if_false } -> [ cond; if_true; if_false ]
  | Dag.Call (_, args) -> args

(* Bodies compile through the hash-consed DAG: every distinct node is one
   instruction, so shared values — whether shared through lets or
   structurally — are computed once and fanned out. The order is a
   depth-first post-order from each binding and then the result: a
   topological order which, unlike raw id order (ids are handed out
   right operand first), finishes one operand before starting the next,
   so few values are live at once. Bindings the result never reads are
   still emitted: their accesses keep feeding the validity mask.
   Variables referencing a later (or missing) binding stay unresolved
   [Var] leaves and are rejected. A register is reused once its node's
   last reader has run; an instruction may write a register it reads,
   because every instruction works cell by cell. *)
let compile ?(cells = 64) (b : Expr.body) =
  let named, root = Dag.of_body_named b in
  let nodes =
    let seen : (int, unit) Hashtbl.t = Hashtbl.create 64 in
    let order = ref [] in
    let rec visit n =
      if not (Hashtbl.mem seen (Dag.id n)) then begin
        Hashtbl.add seen (Dag.id n) ();
        List.iter visit (children n);
        order := n :: !order
      end
    in
    List.iter visit (List.map snd named @ [ root ]);
    Array.of_list (List.rev !order)
  in
  let last_use : (int, int) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun i n ->
      (match Dag.view n with
      | Dag.Var v -> invalid_arg (Printf.sprintf "Compile: unbound variable %s" v)
      | Dag.Call (f, args) when List.length args <> Expr.func_arity f ->
          invalid_arg (Printf.sprintf "Compile: wrong arity for %s" (Expr.func_name f))
      | _ -> ());
      List.iter (fun x -> Hashtbl.replace last_use (Dag.id x) i) (children n))
    nodes;
  Hashtbl.replace last_use (Dag.id root) max_int;
  let reg_of : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let reg x = Hashtbl.find reg_of (Dag.id x) in
  let free = ref [] and registers = ref 0 and accesses = ref [] in
  let emit i =
    let n = nodes.(i) in
    List.iter
      (fun x ->
        if Hashtbl.find last_use (Dag.id x) = i && not (List.mem (reg x) !free) then
          free := reg x :: !free)
      (children n);
    let d =
      match !free with
      | r :: rest ->
          free := rest;
          r
      | [] ->
          incr registers;
          !registers - 1
    in
    Hashtbl.replace reg_of (Dag.id n) d;
    if not (Hashtbl.mem last_use (Dag.id n)) then free := d :: !free;
    match (Dag.view n, List.map reg (children n)) with
    | Dag.Const c, _ -> Const (d, c)
    | Dag.Access { field; offsets }, _ ->
        accesses := (field, offsets) :: !accesses;
        Gather (d, List.length !accesses - 1)
    | Dag.Unary (op, _), [ x ] -> Unary (op, d, x)
    | Dag.Binary (op, _, _), [ x; y ] -> Binary (op, d, x, y)
    | Dag.Select _, [ c; x; y ] -> Select (d, c, x, y)
    | Dag.Call (f, _), [ x ] -> Call (f, d, x, x)
    | Dag.Call (f, _), [ x; y ] -> Call (f, d, x, y)
    | _ -> assert false (* variables and arities were checked above *)
  in
  let code = Array.init (Array.length nodes) emit in
  {
    code;
    accesses = Array.of_list (List.rev !accesses);
    regs = Array.init !registers (fun _ -> Array.make cells 0.);
    root = reg root;
  }

type copy = step:int -> from:int -> float array -> int -> int -> int -> unit

(* Along the innermost axis, when the field spans it (as its last axis),
   cell k reads index idx + k + o; a field without it reads one element
   for the whole block. *)
let gather_row ~extents ~idx ~axes ~offs ~strides ~boundary ~oob ~(copy : copy) dst pos n =
  let rank = Array.length extents and m = Array.length axes in
  let row = extents.(rank - 1) in
  let step = if m > 0 && axes.(m - 1) = rank - 1 then 1 else 0 in
  let target = ref 0 and center = ref 0 and ok = ref true in
  for d = 0 to m - 1 do
    let i = idx.(axes.(d)) in
    let o = i + offs.(d) in
    if d < m - step && (o < 0 || o >= extents.(axes.(d))) then ok := false;
    target := !target + (o * strides.(d));
    center := !center + (i * strides.(d))
  done;
  let first = if step = 1 then idx.(rank - 1) + offs.(m - 1) else 0 in
  let lo = if !ok then max 0 (min n (-first)) else 0 in
  let hi = if not !ok then 0 else if step = 0 then n else max lo (min n (row - first)) in
  if lo < hi then copy ~step ~from:!target dst pos lo hi;
  if lo > 0 || hi < n then begin
    (match boundary with
    | Boundary.Constant c ->
        Array.fill dst pos lo c;
        Array.fill dst (pos + hi) (n - hi) c
    | Boundary.Copy ->
        if lo > 0 then copy ~step ~from:!center dst pos 0 lo;
        if hi < n then copy ~step ~from:!center dst pos hi n);
    Array.fill oob 0 lo true;
    Array.fill oob hi (n - hi) true
  end

let copy_tensor data ~step ~from dst pos a b =
  if step = 1 then Array.blit data (from + a) dst (pos + a) (b - a)
  else Array.fill dst (pos + a) (b - a) data.(from)

external get : float array -> int -> float = "%array_unsafe_get"
external set : float array -> int -> float -> unit = "%array_unsafe_set"

let[@inline] of_bool b = if b then 1. else 0.

(* One dispatch per instruction, then a loop over the block's cells.
   Comparisons yield 1.0 / 0.0 and any non-zero value is true; [And] and
   [Or] read both operands and [Select] both arms, all already
   evaluated, as in the predicated hardware pipeline. *)
let eval t ~n ~gather out pos =
  if n < 0 || n > Array.length t.regs.(t.root) then invalid_arg "Compile.eval: block too long";
  let rr = t.regs in
  for i = 0 to Array.length t.code - 1 do
    match Array.unsafe_get t.code i with
    | Const (d, v) -> Array.fill rr.(d) 0 n v
    | Gather (d, a) -> gather a rr.(d) 0 n
    | Unary (op, d, x) -> (
        let d = rr.(d) and x = rr.(x) in
        match op with
        | Expr.Neg -> for k = 0 to n - 1 do set d k (-.get x k) done
        | Expr.Not -> for k = 0 to n - 1 do set d k (of_bool (get x k = 0.)) done)
    | Binary (op, d, x, y) -> (
        let d = rr.(d) and x = rr.(x) and y = rr.(y) in
        match op with
        | Expr.Add -> for k = 0 to n - 1 do set d k (get x k +. get y k) done
        | Expr.Sub -> for k = 0 to n - 1 do set d k (get x k -. get y k) done
        | Expr.Mul -> for k = 0 to n - 1 do set d k (get x k *. get y k) done
        | Expr.Div -> for k = 0 to n - 1 do set d k (get x k /. get y k) done
        | Expr.Lt -> for k = 0 to n - 1 do set d k (of_bool (get x k < get y k)) done
        | Expr.Le -> for k = 0 to n - 1 do set d k (of_bool (get x k <= get y k)) done
        | Expr.Gt -> for k = 0 to n - 1 do set d k (of_bool (get x k > get y k)) done
        | Expr.Ge -> for k = 0 to n - 1 do set d k (of_bool (get x k >= get y k)) done
        | Expr.Eq -> for k = 0 to n - 1 do set d k (of_bool (get x k = get y k)) done
        | Expr.Ne -> for k = 0 to n - 1 do set d k (of_bool (get x k <> get y k)) done
        | Expr.And -> for k = 0 to n - 1 do set d k (of_bool (get x k <> 0. && get y k <> 0.)) done
        | Expr.Or -> for k = 0 to n - 1 do set d k (of_bool (get x k <> 0. || get y k <> 0.)) done)
    | Select (d, c, x, y) ->
        let d = rr.(d) and c = rr.(c) and x = rr.(x) and y = rr.(y) in
        for k = 0 to n - 1 do set d k (if get c k <> 0. then get x k else get y k) done
    | Call (f, d, x, y) -> (
        let d = rr.(d) and x = rr.(x) and y = rr.(y) in
        match f with
        | Expr.Sqrt -> for k = 0 to n - 1 do set d k (Float.sqrt (get x k)) done
        | Expr.Abs -> for k = 0 to n - 1 do set d k (Float.abs (get x k)) done
        | Expr.Exp -> for k = 0 to n - 1 do set d k (Float.exp (get x k)) done
        | Expr.Log -> for k = 0 to n - 1 do set d k (Float.log (get x k)) done
        | Expr.Sin -> for k = 0 to n - 1 do set d k (Float.sin (get x k)) done
        | Expr.Cos -> for k = 0 to n - 1 do set d k (Float.cos (get x k)) done
        | Expr.Floor -> for k = 0 to n - 1 do set d k (Float.floor (get x k)) done
        | Expr.Ceil -> for k = 0 to n - 1 do set d k (Float.ceil (get x k)) done
        | Expr.Pow -> for k = 0 to n - 1 do set d k (Float.pow (get x k) (get y k)) done
        | Expr.Min -> for k = 0 to n - 1 do set d k (Float.min (get x k) (get y k)) done
        | Expr.Max -> for k = 0 to n - 1 do set d k (Float.max (get x k) (get y k)) done)
  done;
  Array.blit rr.(t.root) 0 out pos n

type 'ctx fn = 'ctx -> float

(* The per-cell adapter: blocks of one cell whose gathers call the
   caller's access functions on the current context. *)
let body ~access b =
  let t = compile ~cells:1 b in
  let fns = Array.map (fun (field, offsets) -> access ~field ~offsets) t.accesses in
  let out = [| 0. |] in
  fun ctx ->
    eval t ~n:1 ~gather:(fun a dst pos _ -> set dst pos (fns.(a) ctx)) out 0;
    out.(0)
