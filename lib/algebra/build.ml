(* Pattern shorthand for the one rule construction that is not rule
   text: the hand-coded Oodb_volcano patterns.  Every shipped rule set is
   text (rules/*.prairie), which lib/ruledsl elaborates to the same
   constructors. *)

module Pattern = Prairie.Pattern

(* patterns *)
let v i = Pattern.Pvar i
let p op d subs = Pattern.Pop (op, d, subs)

(* templates *)
let tv i = Pattern.Tvar (i, None)
let t op d subs = Pattern.Tnode (op, d, subs)
