open Sf_ir

let nest_dim (p : Program.t) ~extent =
  if Program.rank p >= 3 then
    invalid_arg "Transform.nest_dim: programs are limited to 3 dimensions";
  if extent <= 0 then invalid_arg "Transform.nest_dim: non-positive extent";
  let old_rank = Program.rank p in
  let shape = extent :: p.Program.shape in
  (* Original inputs keep their data but now span only the inner axes. *)
  let inputs =
    List.map
      (fun (f : Field.t) -> { f with Field.axes = List.map (fun a -> a + 1) f.Field.axes })
      p.Program.inputs
  in
  (* Accesses to stencil-produced fields become full new-rank accesses
     with a leading 0; accesses to inputs are unchanged. *)
  let lift_expr e =
    Expr.map_accesses
      (fun ~field ~offsets ->
        match Program.find_stencil p field with
        | Some _ when List.length offsets = old_rank -> Expr.Access { field; offsets = 0 :: offsets }
        | Some _ | None -> Expr.Access { field; offsets })
      e
  in
  let stencils =
    List.map
      (fun (s : Stencil.t) ->
        let body =
          {
            Expr.lets = List.map (fun (n, e) -> (n, lift_expr e)) s.Stencil.body.Expr.lets;
            result = lift_expr s.Stencil.body.Expr.result;
          }
        in
        { s with Stencil.body })
      p.Program.stencils
  in
  let p' = { p with Program.shape; inputs; stencils } in
  Program.validate_exn p';
  p'
