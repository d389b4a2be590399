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
