(* Shorthand for writing rules in OCaml, for the two rule constructions
   that are not rule text: Genrules' generated T-rules and the hand-coded
   Oodb_volcano patterns.  Every shipped rule set is text
   (rules/*.prairie), which lib/ruledsl elaborates to the same
   constructors. *)

module Pattern = Prairie.Pattern
module Action = Prairie.Action

(* patterns *)
let v i = Pattern.Pvar i
let p op d subs = Pattern.Pop (op, d, subs)

(* templates *)
let tv i = Pattern.Tvar (i, None)
let t op d subs = Pattern.Tnode (op, d, subs)

(* action expressions *)
let ( $. ) d prop = Action.Prop (d, prop)
let c = Action.call
let ( +! ) a b = Action.Binop (Action.Add, a, b)
let ( &&! ) a b = Action.Binop (Action.And, a, b)
let not_ a = Action.Unop (Action.Not, a)

(* statements *)
let set d prop e = Action.Assign_prop (d, prop, e)
let copy d src = Action.Assign_desc (d, Action.Desc src)

let trule = Prairie.Trule.make
