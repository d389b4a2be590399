module Value = Prairie_value.Value
module Expr = Prairie.Expr
module Descriptor = Prairie.Descriptor

let ruleset catalog =
  Prairie_dsl.Elaborate.elaborate ~helpers:(Helpers.env catalog)
    Shipped.distributed

let default_site = "site0"

let site_of ~sites name =
  match List.assoc_opt name sites with
  | Some s -> s
  | None -> default_site

let ret ?pred ~sites catalog name =
  let site = Value.Str (site_of ~sites name) in
  match Init.ret ?pred catalog name with
  | Expr.Node (kind, op, d, [ Expr.Stored (file, fd) ]) ->
    Expr.Node
      ( kind,
        op,
        Descriptor.set d Names.p_site site,
        [ Expr.Stored (file, Descriptor.set fd Names.p_site site) ] )
  | other -> other

let join = Init.join

let require_site site = Descriptor.of_list [ (Names.p_site, Value.Str site) ]
