module Compile = Sf_reference.Compile
module Interp = Sf_reference.Interp
open Sf_ir

(* Random bodies for the evaluator property: the expression generators
   of Test_expr (variables, And/Or/Not, Select, calls) and Program_gen's
   adversarial one (NaN, inf and signed-zero constants, division), plus
   a call of every math function over them. The leading lets bind every
   variable the generators use, so later lets may shadow them; the
   binding named "dead" is never read. *)
let body_gen =
  let open QCheck.Gen in
  let adversarial =
    Program_gen.adversarial_expr_gen ~fields:[ ("a", 1); ("b", 2); ("cc", 3) ] ~depth:3
  in
  let call =
    let* f =
      oneofl
        [
          Expr.Sqrt; Expr.Abs; Expr.Exp; Expr.Log; Expr.Pow; Expr.Min; Expr.Max; Expr.Sin;
          Expr.Cos; Expr.Floor; Expr.Ceil;
        ]
    in
    let* args = list_repeat (Expr.func_arity f) (oneof [ Test_expr.expr_gen; adversarial ]) in
    return (Expr.Call (f, args))
  in
  let expr = frequency [ (3, Test_expr.expr_gen); (2, adversarial); (1, call) ] in
  let* lets = list_size (int_range 0 3) (pair (oneofl [ "t0"; "t1"; "u"; "dead" ]) expr) in
  let* result = expr in
  let* seeds = list_repeat 3 (int_range (-8) 8) in
  let bound =
    List.map2 (fun v s -> (v, Expr.Const (Float.of_int s /. 3.))) [ "t0"; "t1"; "u" ] seeds
  in
  return { Expr.lets = bound @ lets; result }

(* Per-cell field data, including special values, and whether a read is
   out of bounds (for validity). *)
let value ~field ~offsets cell =
  match Hashtbl.hash (field, offsets, cell) mod 17 with
  | 0 -> Float.nan
  | 1 -> -0.0
  | 2 -> 0.0
  | 3 -> Float.infinity
  | h -> Float.of_int (h - 9) /. 4.
let out_of_bounds ~field ~offsets cell = Hashtbl.hash (cell, offsets, field) mod 7 = 0

(* The per-cell reference semantics: lets in order (shadowing), then
   the result, all through the tree-walking evaluator; the cell is
   invalid if any evaluated access was out of bounds. *)
let reference (b : Expr.body) cell =
  let oob = ref false in
  let lookup ~field ~offsets =
    if out_of_bounds ~field ~offsets cell then oob := true;
    value ~field ~offsets cell
  in
  let env = Hashtbl.create 8 in
  List.iter
    (fun (v, e) -> Hashtbl.replace env v (Interp.eval_expr ~lookup ~env:(Hashtbl.find_opt env) e))
    b.Expr.lets;
  let r = Interp.eval_expr ~lookup ~env:(Hashtbl.find_opt env) b.Expr.result in
  (r, not !oob)

let cells = 133

let batched (b : Expr.body) ~block_len =
  let t = Compile.compile ~cells:block_len b in
  let accesses = Compile.accesses t in
  let out = Array.make cells 0. and valid = Array.make cells true in
  let first = ref 0 in
  let gather a dst pos n =
    let field, offsets = accesses.(a) in
    for k = 0 to n - 1 do
      let cell = !first + k in
      if out_of_bounds ~field ~offsets cell then valid.(cell) <- false;
      dst.(pos + k) <- value ~field ~offsets cell
    done
  in
  while !first < cells do
    let n = min block_len (cells - !first) in
    Compile.eval t ~n ~gather out !first;
    first := !first + n
  done;
  (out, valid)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The batched evaluator must agree bit for bit (values and validity)
   with the tree-walking evaluator, at every block length: one cell (the
   per-cell adapter's), a length that leaves a ragged last block, and
   the interpreter's and simulator's 64. *)
let prop_compile_equals_eval =
  QCheck.Test.make ~count:300 ~name:"compiled expressions equal the evaluator"
    (QCheck.make ~print:Expr.body_to_string body_gen)
    (fun b ->
      let expected = Array.init cells (reference b) in
      List.for_all
        (fun block_len ->
          let out, valid = batched b ~block_len in
          Array.for_all Fun.id
            (Array.mapi
               (fun cell (r, v) -> same_bits r out.(cell) && Bool.equal v valid.(cell))
               expected))
        [ 1; 3; 64 ])

let test_body_lets_evaluate_once () =
  (* Each let is computed once per invocation; the access counter shows
     exactly one evaluation of the shared access per call. *)
  let counter = ref 0 in
  let access ~field:_ ~offsets:_ =
    fun () ->
      incr counter;
      2.
  in
  let body =
    {
      Expr.lets = [ ("t", Expr.Access { field = "a"; offsets = [ 0 ] }) ];
      result = Expr.Binary (Expr.Mul, Expr.Var "t", Expr.Var "t");
    }
  in
  let f = Compile.body ~access body in
  Alcotest.(check (float 0.)) "t*t" 4. (f ());
  Alcotest.(check int) "access evaluated once" 1 !counter;
  Alcotest.(check (float 0.)) "second call" 4. (f ());
  Alcotest.(check int) "once per call" 2 !counter

let test_unbound_variable_rejected () =
  match Compile.compile { Expr.lets = []; result = Expr.Var "ghost" } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unbound variable must be rejected"

let test_let_ordering () =
  (* A binding may reference earlier bindings but not later ones. *)
  let access ~field:_ ~offsets:_ = fun () -> 3. in
  let ok =
    {
      Expr.lets =
        [
          ("a", Expr.Access { field = "x"; offsets = [] });
          ("b", Expr.Binary (Expr.Add, Expr.Var "a", Expr.Const 1.));
        ];
      result = Expr.Var "b";
    }
  in
  Alcotest.(check (float 0.)) "forward refs work" 4. (Compile.body ~access ok ());
  let backwards =
    {
      Expr.lets = [ ("a", Expr.Var "b"); ("b", Expr.Const 1.) ];
      result = Expr.Var "a";
    }
  in
  match Compile.body ~access backwards with
  | exception Invalid_argument _ -> ()
  | (f : unit Compile.fn) ->
      ignore f;
      Alcotest.fail "backward reference must be rejected"

let test_registers_reused () =
  (* A chain of 40 additions keeps at most three values live at a time. *)
  let acc o = Expr.Access { field = "a"; offsets = [ o; -o ] } in
  let result =
    List.fold_left
      (fun e o -> Expr.Binary (Expr.Add, e, acc o))
      (acc 0)
      (List.init 40 (fun o -> o - 20))
  in
  let t = Compile.compile { Expr.lets = []; result } in
  Alcotest.(check bool) "few registers" true (Compile.registers t <= 3)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_compile_equals_eval;
    Alcotest.test_case "lets evaluate once per call" `Quick test_body_lets_evaluate_once;
    Alcotest.test_case "unbound variables rejected" `Quick test_unbound_variable_rejected;
    Alcotest.test_case "let ordering enforced" `Quick test_let_ordering;
    Alcotest.test_case "registers reused by liveness" `Quick test_registers_reused;
  ]
