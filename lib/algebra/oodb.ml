let ruleset catalog =
  Prairie_dsl.Elaborate.elaborate ~helpers:(Helpers.env catalog) Shipped.open_oodb
