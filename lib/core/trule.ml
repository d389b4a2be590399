type t = {
  name : string;
  lhs : Pattern.t;
  rhs : Pattern.tmpl;
  pre_test : Action.stmt list;
  test : Action.expr;
  post_test : Action.stmt list;
}

let make ?(pre_test = []) ?(test = Action.tt) ?(post_test = []) ~name ~lhs ~rhs
    () =
  { name; lhs; rhs; pre_test; test; post_test }

let input_descriptors t = Pattern.desc_vars t.lhs

let output_descriptors t =
  let inputs = input_descriptors t in
  List.filter (fun d -> not (List.mem d inputs)) (Pattern.tmpl_desc_vars t.rhs)

let pp ppf t =
  Format.fprintf ppf "@[<v 2>T-rule %s:@,%a ==> %a" t.name Pattern.pp t.lhs
    Pattern.pp_tmpl t.rhs;
  if t.pre_test <> [] then
    Format.fprintf ppf "@,pre-test: %a" Action.pp_stmts t.pre_test;
  Format.fprintf ppf "@,test: %a" Action.pp_expr t.test;
  if t.post_test <> [] then
    Format.fprintf ppf "@,post-test: %a" Action.pp_stmts t.post_test;
  Format.fprintf ppf "@]"
