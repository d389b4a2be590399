module Value = Prairie_value.Value
module Ruleset = Prairie.Ruleset

exception Elab_error of Prairie.Diagnostic.t list

let build ?helpers (spec : Ast.spec) =
  let properties =
    List.filter_map
      (fun (name, ty) -> Option.map (Prairie.Property.declare name) (Value.ty_of_string ty))
      (Ast.properties spec)
  in
  let trules =
    List.map
      (fun (r : Ast.rule_body) ->
        Prairie.Trule.make ~name:r.Ast.rb_name ~lhs:r.Ast.rb_lhs ~rhs:r.Ast.rb_rhs
          ~pre_test:r.Ast.rb_pre ~test:r.Ast.rb_test ~post_test:r.Ast.rb_post ())
      (Ast.trules spec)
  in
  let irules =
    List.map
      (fun (r : Ast.rule_body) ->
        Prairie.Irule.make ~name:r.Ast.rb_name ~lhs:r.Ast.rb_lhs ~rhs:r.Ast.rb_rhs
          ~test:r.Ast.rb_test ~pre_opt:r.Ast.rb_pre ~post_opt:r.Ast.rb_post ())
      (Ast.irules spec)
  in
  Ruleset.make ~properties
    ~operators:(Ast.operators spec)
    ~algorithms:((Prairie.Irule.null_algorithm, 1) :: Ast.algorithms spec)
    ~trules ~irules ?helpers spec.Ast.ruleset_name

let elaborate ~helpers spec =
  match Check.errors ~helpers spec with
  | [] -> build ~helpers spec
  | ds -> raise (Elab_error ds)

let load_string ~helpers src = elaborate ~helpers (Parser.parse src)
