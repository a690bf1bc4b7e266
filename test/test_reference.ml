open Sf_ir
module Tensor = Sf_reference.Tensor
module Interp = Sf_reference.Interp
module E = Builder.E

let test_tensor_basics () =
  let t = Tensor.of_fn [ 2; 3 ] (fun idx -> match idx with [ i; j ] -> float_of_int ((10 * i) + j) | _ -> 0.) in
  Alcotest.(check (float 0.)) "get" 12. (Tensor.get t [ 1; 2 ]);
  Alcotest.(check int) "flat" 5 (Tensor.flat_index t [ 1; 2 ]);
  Alcotest.(check bool) "in bounds" true (Tensor.in_bounds t [ 1; 2 ]);
  Alcotest.(check bool) "out of bounds" false (Tensor.in_bounds t [ 2; 0 ]);
  (match Tensor.get t [ 0; 3 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected bounds error");
  let u = Tensor.copy t in
  Tensor.set u [ 0; 0 ] 99.;
  Alcotest.(check (float 0.)) "copy is independent" 0. (Tensor.get t [ 0; 0 ]);
  Alcotest.(check (float 0.)) "max abs diff" 99. (Tensor.max_abs_diff t u)

let test_laplace_center () =
  (* On a linear ramp f(j,i) = i, the 4-point laplacian minus 4*center is
     -2*i at interior cells with constant-zero boundary corrections at the
     edges. Check one interior cell exactly. *)
  let p = Fixtures.laplace2d ~shape:[ 4; 4 ] () in
  let a = Tensor.of_fn [ 4; 4 ] (function [ _; i ] -> float_of_int i | _ -> 0.) in
  let results = Interp.run p ~inputs:[ ("a", a) ] in
  let lap = (List.assoc "lap" results).Interp.tensor in
  (* cell (1,1): left 0 + right 2 + up 1 + down 1 - 4*1 = 0. *)
  Alcotest.(check (float 1e-12)) "interior" 0. (Tensor.get lap [ 1; 1 ]);
  (* cell (0,0): left OOB->0, right 1, up OOB->0, down 0, -4*0 = 1. *)
  Alcotest.(check (float 1e-12)) "corner with constant bc" 1. (Tensor.get lap [ 0; 0 ])

let test_copy_boundary () =
  let b = Builder.create ~name:"copybc" ~shape:[ 1; 4 ] () in
  Builder.input b "a";
  Builder.stencil b ~boundary:[ ("a", Boundary.Copy) ] "s" E.(acc "a" [ 0; -1 ] +% acc "a" [ 0; 1 ]);
  Builder.output b "s";
  let p = Builder.finish b in
  let a = Tensor.of_array [ 1; 4 ] [| 1.; 2.; 3.; 4. |] in
  let s = (List.assoc "s" (Interp.run p ~inputs:[ ("a", a) ])).Interp.tensor in
  (* At i=0 the left neighbour copies the center: 1 + 2 = 3. *)
  Alcotest.(check (float 0.)) "left edge" 3. (Tensor.get s [ 0; 0 ]);
  Alcotest.(check (float 0.)) "right edge" 7. (Tensor.get s [ 0; 3 ]);
  Alcotest.(check (float 0.)) "interior" 4. (Tensor.get s [ 0; 1 ])

let test_shrink_mask () =
  let b = Builder.create ~name:"shrink" ~shape:[ 3; 3 ] () in
  Builder.input b "a";
  Builder.stencil b ~shrink:true
    ~boundary:[ ("a", Boundary.Constant 0.) ]
    "s"
    E.(acc "a" [ 0; -1 ] +% acc "a" [ 0; 1 ] +% acc "a" [ -1; 0 ] +% acc "a" [ 1; 0 ]);
  Builder.output b "s";
  let p = Builder.finish b in
  let a = Tensor.create ~init:1. [ 3; 3 ] in
  let r = List.assoc "s" (Interp.run p ~inputs:[ ("a", a) ]) in
  (* Only the single interior cell (1,1) is valid on a 3x3 domain. *)
  let valid_count = Array.fold_left (fun n v -> if v then n + 1 else n) 0 r.Interp.valid in
  Alcotest.(check int) "one valid cell" 1 valid_count;
  Alcotest.(check bool) "center valid" true r.Interp.valid.(4);
  Alcotest.(check (float 0.)) "center value" 4. (Tensor.get r.Interp.tensor [ 1; 1 ])

let test_lower_dim_and_scalar () =
  let b = Builder.create ~name:"lower" ~shape:[ 2; 3; 4 ] () in
  Builder.input b "u";
  Builder.input b ~axes:[ 1 ] "row";
  Builder.input b ~axes:[] "alpha";
  Builder.stencil b "s" E.(acc "u" [ 0; 0; 0 ] *% acc "row" [ 0 ] +% sc "alpha");
  Builder.output b "s";
  let p = Builder.finish b in
  let u = Tensor.create ~init:2. [ 2; 3; 4 ] in
  let row = Tensor.of_array [ 3 ] [| 10.; 20.; 30. |] in
  let alpha = Tensor.of_array [ 1 ] [| 0.5 |] in
  let s =
    (List.assoc "s" (Interp.run p ~inputs:[ ("u", u); ("row", row); ("alpha", alpha) ]))
      .Interp.tensor
  in
  Alcotest.(check (float 0.)) "j=0" 20.5 (Tensor.get s [ 0; 0; 3 ]);
  Alcotest.(check (float 0.)) "j=2" 60.5 (Tensor.get s [ 1; 2; 0 ])

let test_multi_stage_dependency () =
  (* b = a+1 everywhere; c = b * 2 reads b at an offset. *)
  let bld = Builder.create ~name:"stages" ~shape:[ 1; 4 ] () in
  Builder.input bld "a";
  Builder.stencil bld "b" E.(acc "a" [ 0; 0 ] +% c 1.);
  Builder.stencil bld ~boundary:[ ("b", Boundary.Constant 100.) ] "c" E.(acc "b" [ 0; 1 ] *% c 2.);
  Builder.output bld "c";
  let p = Builder.finish bld in
  let a = Tensor.of_array [ 1; 4 ] [| 0.; 1.; 2.; 3. |] in
  let cres = (List.assoc "c" (Interp.run p ~inputs:[ ("a", a) ])).Interp.tensor in
  Alcotest.(check (float 0.)) "reads downstream neighbour" 4. (Tensor.get cres [ 0; 0 ]);
  Alcotest.(check (float 0.)) "boundary of produced field" 200. (Tensor.get cres [ 0; 3 ])

let test_data_dependent_branch () =
  let bld = Builder.create ~name:"branchy" ~shape:[ 1; 4 ] () in
  Builder.input bld "a";
  Builder.stencil bld "s" E.(sel (acc "a" [ 0; 0 ] >% c 0.) (sqrt_ (acc "a" [ 0; 0 ])) (c 0.)) ;
  Builder.output bld "s";
  let p = Builder.finish bld in
  let a = Tensor.of_array [ 1; 4 ] [| 4.; -1.; 9.; 0. |] in
  let s = (List.assoc "s" (Interp.run p ~inputs:[ ("a", a) ])).Interp.tensor in
  Alcotest.(check (float 0.)) "sqrt branch" 2. (Tensor.get s [ 0; 0 ]);
  Alcotest.(check (float 0.)) "else branch" 0. (Tensor.get s [ 0; 1 ]);
  Alcotest.(check (float 0.)) "sqrt 9" 3. (Tensor.get s [ 0; 2 ])

let test_missing_input () =
  let p = Fixtures.laplace2d () in
  match Interp.run p ~inputs:[] with
  | exception Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected runtime error for missing input"

let test_non_shortcircuit_semantics () =
  (* Both sides of && are evaluated but selection is still correct. *)
  let e = Fixtures.ok1 (Sf_frontend.Parser.parse_expr "a[0] > 0.0 && 1.0 / a[0] > 0.5 ? 1.0 : 0.0") in
  let lookup ~field:_ ~offsets:_ = 0. in
  let v = Interp.eval_expr ~lookup ~env:(fun _ -> None) e in
  Alcotest.(check (float 0.)) "division by zero tolerated" 0. v

(* The interpreter's semantics stated cell by cell: every stencil, each
   cell through the tree-walking evaluator, each let evaluated in order
   whether read or not, with per-dimension boundary replacement and
   shrink validity. *)
let per_cell_reference (p : Program.t) ~inputs =
  let shape = Array.of_list p.Program.shape in
  let store = Hashtbl.create 8 in
  List.iter (fun (name, t) -> Hashtbl.replace store name t) inputs;
  List.map
    (fun (s : Stencil.t) ->
      let out = Tensor.create p.Program.shape in
      let valid = Array.make (Program.cells p) true in
      for flat = 0 to Program.cells p - 1 do
        let idx = Array.make (Array.length shape) 0 and rem = ref flat in
        for d = Array.length shape - 1 downto 0 do
          idx.(d) <- !rem mod shape.(d);
          rem := !rem / shape.(d)
        done;
        let oob = ref false in
        let lookup ~field ~offsets =
          let t : Tensor.t = Hashtbl.find store field in
          match Program.field_axes p field with
          | [] -> t.Tensor.data.(0)
          | axes ->
              let center = List.map (fun a -> idx.(a)) axes in
              let target = List.map2 ( + ) center offsets in
              if List.for_all2 (fun i a -> i >= 0 && i < shape.(a)) target axes then
                Tensor.get t target
              else begin
                oob := true;
                match Stencil.boundary_for s field with
                | Boundary.Constant c -> c
                | Boundary.Copy -> Tensor.get t center
              end
        in
        let env = Hashtbl.create 4 in
        List.iter
          (fun (v, e) ->
            Hashtbl.replace env v (Interp.eval_expr ~lookup ~env:(Hashtbl.find_opt env) e))
          s.Stencil.body.Expr.lets;
        let v = Interp.eval_expr ~lookup ~env:(Hashtbl.find_opt env) s.Stencil.body.Expr.result in
        Tensor.set_flat out flat v;
        if s.Stencil.shrink && !oob then valid.(flat) <- false
      done;
      Hashtbl.replace store s.Stencil.name out;
      (s.Stencil.name, { Interp.tensor = out; valid }))
    (Program.topological_stencils p)

(* Every result in [expected] is present in [actual] with the same
   validity mask and bit-identical values on every valid cell, or on
   every cell with [~invalid_too] (the simulator does not stream the
   values of invalid cells). *)
let check_bit_identical ?(invalid_too = false) what expected actual =
  List.iter
    (fun (name, (r : Interp.result)) ->
      let r' = List.assoc name actual in
      Alcotest.(check (array bool)) (Printf.sprintf "%s: %s validity" what name) r.Interp.valid
        r'.Interp.valid;
      Array.iteri
        (fun i v ->
          let v' = r'.Interp.tensor.Tensor.data.(i) in
          if (invalid_too || r.Interp.valid.(i))
             && not (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float v'))
          then
            Alcotest.failf "%s: %s cell %d: %h vs %h" what name i v v')
        r.Interp.tensor.Tensor.data)
    expected

(* Programs that probe the blocked gathers' edges: an innermost extent
   that is not a multiple of the 64-cell block, offsets at least as large
   as an extent (whole blocks out of bounds, along the innermost and the
   outer axes), reads across block boundaries of a produced field, a
   binding nothing reads, and a 3-D program reading lower-dimensional
   fields that do and do not span the innermost axis, and a scalar, and
   a program whose rows are a single word at W = 4. *)
let edge_programs ~boundary ~shrink ~vector_width =
  let two_d =
    let b = Builder.create ~vector_width ~name:"edges2d" ~shape:[ 5; 100 ] () in
    Builder.input b "a";
    (* Read only by a let that nothing reads: still an input of s. *)
    Builder.input b "z";
    Builder.stencil b ~boundary:[ ("a", boundary); ("z", boundary) ] ~shrink
      ~lets:
        [
          ("t", E.(acc "a" [ 0; -1 ] +% acc "a" [ 0; 1 ]));
          ("unused", E.(acc "a" [ 0; -1 ] *% c 3.));
          ("unread", E.(acc "z" [ 1; 2 ]));
        ]
      "s"
      E.(
        var "t" +% acc "a" [ 1; 0 ] -% acc "a" [ -1; 0 ]
        +% (acc "a" [ 0; 100 ] *% c 0.5)
        +% acc "a" [ 0; -130 ] +% acc "a" [ 5; 0 ] +% acc "a" [ -2; 70 ]);
    (* The unread let reaches past the live accesses' window. *)
    Builder.stencil b ~boundary:[ ("s", boundary) ] ~shrink
      ~lets:[ ("ahead", E.(acc "s" [ 2; 0 ])) ]
      "s2"
      E.(acc "s" [ 0; 64 ] +% acc "s" [ 0; -65 ] +% acc "s" [ -1; 0 ] +% acc "s" [ 0; 0 ]);
    Builder.output b "s2";
    Builder.finish b
  in
  let three_d =
    let b = Builder.create ~vector_width ~name:"edges3d" ~shape:[ 3; 4; 36 ] () in
    Builder.input b "u";
    Builder.input b ~axes:[ 1 ] "row";
    Builder.input b ~axes:[ 0; 2 ] "plane";
    Builder.input b ~axes:[] "alpha";
    let bcs = List.map (fun f -> (f, boundary)) [ "u"; "row"; "plane" ] in
    Builder.stencil b ~boundary:bcs ~shrink "s"
      E.(
        acc "u" [ 0; 0; -1 ]
        +% (acc "u" [ 0; 1; 36 ] *% acc "row" [ 1 ])
        +% (acc "plane" [ -1; 2 ] *% acc "u" [ 1; 0; 0 ])
        +% acc "plane" [ 0; -40 ] +% acc "row" [ 4 ] +% acc "row" [ -1 ] +% sc "alpha"
        +% acc "u" [ 0; -1; 1 ]);
    Builder.output b "s";
    Builder.finish b
  in
  (* An innermost extent of 4: every block of a stencil unit ends at its
     row, and at W = 4 it is a single word. Inner offsets of +-5 put
     whole rows out of bounds; +-1 start and end runs mid-word. *)
  let narrow =
    let b = Builder.create ~vector_width ~name:"edges_narrow" ~shape:[ 6; 4 ] () in
    Builder.input b "a";
    Builder.stencil b ~boundary:[ ("a", boundary) ] ~shrink "s"
      E.(
        acc "a" [ 0; -1 ] +% acc "a" [ 0; 1 ] +% acc "a" [ 1; 0 ] -% acc "a" [ -1; 0 ]
        +% (acc "a" [ -1; -1 ] *% acc "a" [ 1; 1 ]));
    Builder.stencil b ~boundary:[ ("s", boundary) ] ~shrink "s2"
      E.(acc "s" [ 0; -5 ] +% acc "s" [ 1; 5 ] +% acc "s" [ -1; 2 ] +% acc "s" [ 0; 0 ]);
    Builder.output b "s";
    Builder.output b "s2";
    Builder.finish b
  in
  [ two_d; three_d; narrow ]

let edge_configurations =
  List.concat_map
    (fun boundary ->
      List.concat_map
        (fun shrink ->
          List.concat_map
            (fun vector_width -> edge_programs ~boundary ~shrink ~vector_width)
            [ 1; 2; 4 ])
        [ false; true ])
    [ Boundary.Constant 0.5; Boundary.Copy ]

let test_block_edges () =
  List.iter
    (fun p ->
      let inputs = Interp.random_inputs ~seed:7 p in
      check_bit_identical ~invalid_too:true p.Program.name (per_cell_reference p ~inputs)
        (Interp.run_all p ~inputs))
    edge_configurations

let suite =
  [
    Alcotest.test_case "tensor basics" `Quick test_tensor_basics;
    Alcotest.test_case "laplace values" `Quick test_laplace_center;
    Alcotest.test_case "copy boundary condition" `Quick test_copy_boundary;
    Alcotest.test_case "shrink validity mask" `Quick test_shrink_mask;
    Alcotest.test_case "lower-dimensional and scalar inputs" `Quick test_lower_dim_and_scalar;
    Alcotest.test_case "multi-stage dependencies" `Quick test_multi_stage_dependency;
    Alcotest.test_case "data-dependent branches" `Quick test_data_dependent_branch;
    Alcotest.test_case "missing input is reported" `Quick test_missing_input;
    Alcotest.test_case "non-short-circuit logic" `Quick test_non_shortcircuit_semantics;
    Alcotest.test_case "block edges: interpreter equals per-cell semantics" `Quick
      test_block_edges;
  ]
