(* Shared machinery for the benchmark harness: timing, the Figure 10-13
   sweep, table printing. *)

module W = Prairie_workload
module Opt = Prairie_optimizers.Optimizers
module Search = Prairie_volcano.Search

(* the paper varies base-class cardinalities five times per data point *)
let seeds = [ 101; 202; 303; 404; 505 ]

(* the catalog whose search a figure row reports groups and cost for *)
let counts_seed = 505

(* each (query, catalog, contestant) is timed as the fastest of this many
   runs; the paper looped 3000 times because 1994 clocks were coarse *)
let runs = 3

let now () = Unix.gettimeofday ()

let elapsed_ms f =
  let t0 = now () in
  f ();
  (now () -. t0) *. 1000.0

type point = {
  joins : int;
  prairie_ms : float;
  volcano_ms : float;
  groups : int;
  cost : float;
}

(* One data point of Figures 10-13: for each catalog, the best of [runs]
   optimizations by each contestant, interleaved; the point's times are the
   means over the catalogs. *)
let measure_point q ~joins =
  let counted = ref None in
  let times =
    List.map
      (fun (inst : W.Queries.instance) ->
        let prairie = Opt.oodb_prairie inst.W.Queries.catalog in
        let volcano = Opt.oodb_volcano inst.W.Queries.catalog in
        let expr = inst.W.Queries.expr in
        let p = ref infinity and v = ref infinity in
        for _ = 1 to runs do
          p :=
            Float.min !p
              (elapsed_ms (fun () ->
                   let r = Opt.optimize prairie expr in
                   if inst.W.Queries.seed = counts_seed then counted := Some r));
          v := Float.min !v (elapsed_ms (fun () -> ignore (Opt.optimize volcano expr)))
        done;
        (!p, !v))
      (W.Queries.instances q ~joins ~seeds)
  in
  let mean f =
    List.fold_left (fun acc t -> acc +. f t) 0.0 times
    /. float_of_int (List.length times)
  in
  let r = Option.get !counted in
  {
    joins;
    prairie_ms = mean fst;
    volcano_ms = mean snd;
    groups = Search.group_count r.Opt.search;
    cost = r.Opt.cost;
  }

(* Sweep the join count until a per-point time budget is exhausted (the
   paper stops when virtual memory is exhausted; we stop on wall clock). *)
let sweep q ~max_joins ~budget_s =
  let rec go acc joins =
    if joins > max_joins then List.rev acc
    else
      let t0 = now () in
      let pt = measure_point q ~joins in
      if now () -. t0 > budget_s && joins < max_joins then List.rev (pt :: acc)
      else go (pt :: acc) (joins + 1)
  in
  go [] 1

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subheader title = Printf.printf "\n-- %s --\n" title

let print_points name points =
  Printf.printf "%s\n" name;
  Printf.printf "  %6s  %12s  %12s  %8s  %10s  %7s\n" "joins" "Prairie(ms)"
    "Volcano(ms)" "ratio" "groups" "cost";
  List.iter
    (fun p ->
      Printf.printf "  %6d  %12.3f  %12.3f  %7.2f%%  %10d  %7.1f\n" p.joins
        p.prairie_ms p.volcano_ms
        ((p.prairie_ms /. Float.max 1e-9 p.volcano_ms -. 1.0) *. 100.0)
        p.groups p.cost)
    points
