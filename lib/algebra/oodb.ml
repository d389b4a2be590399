let ruleset catalog =
  Prairie_dsl.Elaborate.elaborate ~helpers:(Helpers.env catalog) Shipped.open_oodb

let ret = Init.ret
let join = Init.join
let select = Init.select
let project = Init.project
let mat = Init.mat
let unnest = Init.unnest
let sort = Init.sort
