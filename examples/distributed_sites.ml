(* A distributed optimizer from the same framework.

     dune exec examples/distributed_sites.exe

   R* (the distributed System R the paper's related work reviews) decides
   where each operator runs and when streams cross the network.  Here the
   stream's *site* is just another descriptor property: the SHIP
   enforcer-operator moves streams, P2V classifies `site` as physical
   automatically, and the unchanged search engine makes the classic
   decisions — ship the small relation, run where the data is, honor the
   client's result site. *)

module Dist = Prairie_algebra.Distributed
module Opt = Prairie_optimizers.Optimizers
module P2v = Prairie_p2v
module Explain = Prairie_volcano.Explain
module Rel = Prairie_algebra.Relational
module Catalog = Prairie_catalog.Catalog
module A = Prairie_value.Attribute
module P = Prairie_value.Predicate

let attr o n = A.make ~owner:o ~name:n
let ( === ) a b = P.Cmp (P.Eq, P.T_attr a, P.T_attr b)

let catalog =
  Catalog.of_files
    [
      Rel.relation ~name:"orders" ~cardinality:100_000 ~tuple_size:80 [ ("cust", 5_000) ];
      Rel.relation ~name:"cust" ~cardinality:5_000 ~tuple_size:120 [ ("cust", 5_000) ];
    ]

let sites = [ ("orders", "warehouse"); ("cust", "hq") ]

let () =
  let ruleset = Dist.ruleset catalog in
  let tr = P2v.Translate.translate ruleset in
  Format.printf "%a@.@." P2v.Report.pp (P2v.Report.of_translation tr);
  Format.printf
    "note the classification: [site] became the physical property, found@.\
     automatically from the SHIP Null-rule's property propagation.@.@.";
  let opt =
    {
      Opt.name = "distributed";
      volcano = tr.P2v.Translate.volcano;
      prepare = P2v.Translate.prepare_query tr;
    }
  in
  let q =
    Dist.join catalog
      ~pred:(attr "orders" "cust" === attr "cust" "cust")
      (Dist.ret ~sites catalog "orders")
      (Dist.ret ~sites catalog "cust")
  in
  List.iter
    (fun (label, required) ->
      let r = Opt.optimize ~required opt q in
      match r.Opt.plan with
      | Some plan ->
        Format.printf "--- result required at %s ---@.%a@." label Explain.pp plan
      | None -> Format.printf "--- %s: no plan@." label)
    [
      ("anywhere (ship the 5k customers to the 100k orders)", Prairie.Descriptor.empty);
      ("hq (now the 100k orders must travel)", Dist.require_site "hq");
      ("a third site, the client's laptop", Dist.require_site "laptop");
    ]
