(* Shorthand for writing rules in OCaml, for the rule sets that are built
   rather than written as text: the Aggregates and Distributed fragments,
   Genrules' generated T-rules and the hand-coded Oodb_volcano patterns.
   The textual rule language (lib/ruledsl) elaborates to the same
   constructors; the relational and OODB rule sets are text
   (rules/*.prairie). *)

module Pattern = Prairie.Pattern
module Action = Prairie.Action
module Value = Prairie_value.Value
module Order = Prairie_value.Order

(* patterns *)
let v i = Pattern.Pvar i
let p op d subs = Pattern.Pop (op, d, subs)

(* templates *)
let tv i = Pattern.Tvar (i, None)
let tvd i d = Pattern.Tvar (i, Some d)
let t op d subs = Pattern.Tnode (op, d, subs)

(* action expressions *)
let ( $. ) d prop = Action.Prop (d, prop)
let c = Action.call
let dont_care = Action.Const (Value.Order Order.Any)
let ( +! ) a b = Action.Binop (Action.Add, a, b)
let ( &&! ) a b = Action.Binop (Action.And, a, b)
let ( ||! ) a b = Action.Binop (Action.Or, a, b)
let not_ a = Action.Unop (Action.Not, a)
let ( ===! ) a b = Action.(a === b)

(* statements *)
let set d prop e = Action.Assign_prop (d, prop, e)
let copy d src = Action.Assign_desc (d, Action.Desc src)

let trule = Prairie.Trule.make
let irule = Prairie.Irule.make
