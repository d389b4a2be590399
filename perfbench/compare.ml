(* compare A B: two sets of runs (the JSON lines --out appends) judged by
   the bounds in BENCHMARK.json. *)

type run = {
  workload : string;
  seed : int;
  trace : bool;
  attempted : float;
  failed : float;
  values : (string * float) list;
}

let read_lines file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (if String.trim line = "" then acc else line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let load file =
  List.filter_map
    (fun line ->
      let j = Json.parse line in
      match (Json.str "workload" j, Json.member "metrics" j) with
      | Some workload, Some (Json.Obj ms) ->
        let num k = Option.value ~default:0.0 (Json.num k j) in
        Some
          {
            workload;
            seed = int_of_float (num "seed");
            trace = Json.member "trace" j = Some (Json.Bool true);
            attempted = num "attempted";
            failed = num "failed";
            values =
              List.filter_map
                (fun (name, v) -> Option.map (fun f -> (name, f)) (Json.num "value" v))
                ms;
          }
      | _ -> None)
    (read_lines file)

(* name -> (lower is better, bound) for every end-to-end metric *)
let bounds file =
  match Json.member "end_to_end" (Json.parse (String.concat "\n" (read_lines file))) with
  | Some (Json.Arr ms) ->
    List.filter_map
      (fun m ->
        match (Json.str "name" m, Json.str "better" m, Json.num "bound" m) with
        | Some name, Some better, Some bound -> Some (name, (better = "lower", bound))
        | _ -> None)
      ms
  | _ -> failwith (file ^ ": no end_to_end list")

(* Python's statistics.quantiles(values, n=4) (the "exclusive" method):
   the spread the benchmark's steadiness is judged by. *)
let quartiles values =
  let d = Array.of_list values in
  Array.sort Float.compare d;
  let n = Array.length d in
  if n < 2 then (d.(0), d.(0))
  else
    let m = n + 1 in
    let cut i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((d.(j - 1) *. (4.0 -. delta)) +. (d.(j) *. delta)) /. 4.0
    in
    (cut 1, cut 3)

let spread values =
  let q1, q3 = quartiles values in
  (q3 -. q1) /. Measure.median (Array.of_list values)

let verdict ~lower ~bound a b =
  let ma = Measure.median (Array.of_list a) and mb = Measure.median (Array.of_list b) in
  let worse_by = (if lower then mb -. ma else ma -. mb) /. ma in
  let better x y = if lower then x < y else x > y in
  let all_better = List.for_all (fun y -> List.for_all (fun x -> better y x) a) b in
  let wide = Float.max (spread a) (spread b) > bound in
  let v =
    if wide then if all_better then "better" else "unresolved"
    else if worse_by > bound then "worse"
    else if worse_by < -.bound then "better"
    else "unchanged"
  in
  (ma, mb, worse_by, v)

let run ~bench file_a file_b =
  let a = load file_a and b = load file_b in
  let bounds = bounds bench in
  let workloads =
    List.sort_uniq compare (List.map (fun r -> r.workload) a)
    |> List.filter (fun w -> List.exists (fun r -> r.workload = w) b)
  in
  let bad = ref 0 in
  Printf.printf "%-11s %-17s %12s %12s %8s %7s  %s\n" "workload" "metric" "A median"
    "B median" "worse by" "bound" "verdict";
  List.iter
    (fun w ->
      let untraced runs = List.filter (fun r -> r.workload = w && not r.trace) runs in
      let values name runs =
        List.filter_map (fun r -> List.assoc_opt name r.values) (untraced runs)
      in
      List.iter
        (fun (name, (lower, bound)) ->
          match (values name a, values name b) with
          | [], _ | _, [] -> ()
          | va, vb ->
            let ma, mb, worse_by, v = verdict ~lower ~bound va vb in
            if v = "worse" then incr bad;
            Printf.printf "%-11s %-17s %12.6g %12.6g %+7.2f%% %6.1f%%  %s\n" w name ma mb
              (100.0 *. worse_by) (100.0 *. bound) v)
        bounds;
      (* failures may not rise *)
      let frac runs =
        let rs = List.filter (fun r -> r.workload = w) runs in
        List.fold_left (fun s r -> s +. r.failed) 0.0 rs
        /. Float.max 1.0 (List.fold_left (fun s r -> s +. r.attempted) 0.0 rs)
      in
      if frac b > frac a then begin
        incr bad;
        Printf.printf "%-11s %-17s %12.6g %12.6g  failed fraction rose\n" w "failed_frac"
          (frac a) (frac b)
      end;
      (* exact per-layer values repeat bit for bit on the same seed *)
      let traced runs = List.filter (fun r -> r.workload = w && r.trace) runs in
      let compared = ref 0 in
      List.iter
        (fun (ra : run) ->
          List.iter
            (fun (rb : run) ->
              if ra.seed = rb.seed then
                List.iter
                  (fun (m : Catalogue.metric) ->
                    let value (r : run) = List.assoc_opt m.Catalogue.name r.values in
                    match (value ra, value rb) with
                    | Some x, Some y when m.Catalogue.exact ->
                      incr compared;
                      if not (Float.equal x y) then begin
                        incr bad;
                        Printf.printf "%-11s %-17s %12.17g %12.17g  exact value differs (seed %d)\n"
                          w m.Catalogue.name x y ra.seed
                      end
                    | _ -> ())
                  Catalogue.per_layer)
            (traced b))
        (traced a);
      if !compared > 0 then
        Printf.printf "%-11s %d exact per-layer values compared on equal seeds\n" w !compared)
    workloads;
  if !bad > 0 then begin
    Printf.printf "%d row(s) worse or differing\n" !bad;
    1
  end
  else 0
