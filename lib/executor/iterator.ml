module Value = Prairie_value.Value
module Attribute = Prairie_value.Attribute
module Predicate = Prairie_value.Predicate
module Catalog = Prairie_catalog.Catalog

type t = {
  schema : Tuple.schema;
  open_ : unit -> unit;
  next : unit -> Tuple.t option;
  close : unit -> unit;
}

let of_array schema rows =
  let pos = ref 0 in
  {
    schema;
    open_ = (fun () -> pos := 0);
    next =
      (fun () ->
        if !pos < Array.length rows then begin
          let r = rows.(!pos) in
          incr pos;
          Some r
        end
        else None);
    close = ignore;
  }

let materialize it =
  it.open_ ();
  let acc = ref [] in
  let rec drain () =
    match it.next () with
    | Some r ->
      acc := r :: !acc;
      drain ()
    | None -> ()
  in
  drain ();
  it.close ();
  Array.of_list (List.rev !acc)

(* A generic lazily-computed materialized iterator: [compute] runs at open
   time, so re-opening recomputes (inputs may themselves be re-openable). *)
let lazy_array schema compute =
  let rows = ref [||] in
  let pos = ref 0 in
  {
    schema;
    open_ =
      (fun () ->
        rows := compute ();
        pos := 0);
    next =
      (fun () ->
        if !pos < Array.length !rows then begin
          let r = !rows.(!pos) in
          incr pos;
          Some r
        end
        else None);
    close = (fun () -> rows := [||]);
  }

let scan (table : Table.t) ~pred =
  let schema = table.Table.schema in
  let pos = ref 0 in
  {
    schema;
    open_ = (fun () -> pos := 0);
    next =
      (fun () ->
        let n = Array.length table.Table.rows in
        let rec go () =
          if !pos >= n then None
          else begin
            let r = table.Table.rows.(!pos) in
            incr pos;
            if Tuple.eval_pred schema pred r then Some r else go ()
          end
        in
        go ());
    close = ignore;
  }

let index_scan (table : Table.t) ~pred ~order =
  let schema = table.Table.schema in
  lazy_array schema (fun () ->
      let rows =
        Array.of_list
          (List.filter
             (Tuple.eval_pred schema pred)
             (Array.to_list table.Table.rows))
      in
      let copy = Array.copy rows in
      Array.stable_sort (Tuple.compare_by schema order) copy;
      copy)

let filter input ~pred =
  {
    input with
    next =
      (fun () ->
        let rec go () =
          match input.next () with
          | None -> None
          | Some r ->
            if Tuple.eval_pred input.schema pred r then Some r else go ()
        in
        go ());
  }

let project input ~attrs =
  let schema = Tuple.project_schema input.schema attrs in
  {
    schema;
    open_ = input.open_;
    next =
      (fun () ->
        match input.next () with
        | None -> None
        | Some r -> Some (Tuple.project input.schema attrs r));
    close = input.close;
  }

let nested_loops outer inner ~pred =
  let schema = Tuple.concat_schema outer.schema inner.schema in
  let current_outer = ref None in
  {
    schema;
    open_ =
      (fun () ->
        outer.open_ ();
        current_outer := None);
    next =
      (fun () ->
        let rec go () =
          match !current_outer with
          | None -> (
            match outer.next () with
            | None -> None
            | Some o ->
              current_outer := Some o;
              inner.open_ ();
              go ())
          | Some o -> (
            match inner.next () with
            | None ->
              inner.close ();
              current_outer := None;
              go ()
            | Some i ->
              let joined = Tuple.concat o i in
              if Tuple.eval_pred schema pred joined then Some joined else go ())
        in
        go ());
    close =
      (fun () ->
        outer.close ();
        current_outer := None);
  }

(* Split the predicate's equality pairs into (left attr, right attr) by
   schema membership; residual conjuncts become a post-filter. *)
let join_keys left_schema right_schema pred =
  let pairs = Predicate.equality_pairs pred in
  let keys =
    List.filter_map
      (fun (a, b) ->
        let a_left = Tuple.position left_schema a <> None in
        let b_left = Tuple.position left_schema b <> None in
        let a_right = Tuple.position right_schema a <> None in
        let b_right = Tuple.position right_schema b <> None in
        if a_left && b_right then Some (a, b)
        else if b_left && a_right then Some (b, a)
        else None)
      pairs
  in
  keys

let key_of schema attrs tuple =
  List.map
    (fun a -> match Tuple.get schema tuple a with Some v -> v | None -> Value.Null)
    attrs

let hash_join outer inner ~pred =
  let schema = Tuple.concat_schema outer.schema inner.schema in
  lazy_array schema (fun () ->
      let keys = join_keys outer.schema inner.schema pred in
      let lkeys = List.map fst keys and rkeys = List.map snd keys in
      let table = Hashtbl.create 64 in
      Array.iter
        (fun r ->
          let k = key_of inner.schema rkeys r in
          Hashtbl.add table k r)
        (materialize inner);
      let out = ref [] in
      Array.iter
        (fun o ->
          let k = key_of outer.schema lkeys o in
          List.iter
            (fun i ->
              let joined = Tuple.concat o i in
              if Tuple.eval_pred schema pred joined then out := joined :: !out)
            (List.rev (Hashtbl.find_all table k)))
        (materialize outer);
      Array.of_list (List.rev !out))

let merge_join left right ~pred =
  let schema = Tuple.concat_schema left.schema right.schema in
  lazy_array schema (fun () ->
      let keys = join_keys left.schema right.schema pred in
      let lkeys = List.map fst keys and rkeys = List.map snd keys in
      let ls = materialize left and rs = materialize right in
      let cmp_key k1 k2 = List.compare Value.compare k1 k2 in
      let out = ref [] in
      let nl = Array.length ls and nr = Array.length rs in
      let i = ref 0 and j = ref 0 in
      while !i < nl && !j < nr do
        let kl = key_of left.schema lkeys ls.(!i) in
        let kr = key_of right.schema rkeys rs.(!j) in
        let cpn = cmp_key kl kr in
        if cpn < 0 then incr i
        else if cpn > 0 then incr j
        else begin
          (* emit the cross product of the two equal-key groups *)
          let i_end = ref !i in
          while
            !i_end < nl && cmp_key (key_of left.schema lkeys ls.(!i_end)) kl = 0
          do
            incr i_end
          done;
          let j_end = ref !j in
          while
            !j_end < nr && cmp_key (key_of right.schema rkeys rs.(!j_end)) kr = 0
          do
            incr j_end
          done;
          for a = !i to !i_end - 1 do
            for b = !j to !j_end - 1 do
              let joined = Tuple.concat ls.(a) rs.(b) in
              if Tuple.eval_pred schema pred joined then out := joined :: !out
            done
          done;
          i := !i_end;
          j := !j_end
        end
      done;
      Array.of_list (List.rev !out))

let sort input ~order =
  lazy_array input.schema (fun () ->
      let rows = materialize input in
      Array.stable_sort (Tuple.compare_by input.schema order) rows;
      rows)

let mat_deref (db : Table.database) input ~attr =
  match Catalog.ref_target db.Table.catalog attr with
  | None ->
    invalid_arg
      (Printf.sprintf "MAT: %s is not a reference attribute"
         (Attribute.to_string attr))
  | Some target ->
    let target_table = Table.find db target in
    let schema = Tuple.concat_schema input.schema target_table.Table.schema in
    {
      schema;
      open_ = input.open_;
      next =
        (fun () ->
          let rec go () =
            match input.next () with
            | None -> None
            | Some r -> (
              match Tuple.get input.schema r attr with
              | Some (Value.Int oid)
                when oid >= 0 && oid < Array.length target_table.Table.rows ->
                Some (Tuple.concat r target_table.Table.rows.(oid))
              | Some _ | None -> go ())
          in
          go ());
      close = input.close;
    }

let unnest input ~attr =
  let pending = ref [] in
  {
    schema = input.schema;
    open_ =
      (fun () ->
        input.open_ ();
        pending := []);
    next =
      (fun () ->
        let rec go () =
          match !pending with
          | r :: rest ->
            pending := rest;
            Some r
          | [] -> (
            match input.next () with
            | None -> None
            | Some r -> (
              match (Tuple.position input.schema attr, Tuple.get input.schema r attr) with
              | Some i, Some (Value.List elems) ->
                pending :=
                  List.map
                    (fun e ->
                      let copy = Array.copy r in
                      copy.(i) <- e;
                      copy)
                    elems;
                go ()
              | _, _ -> Some r))
        in
        go ());
    close = input.close;
  }

let agg_count_attr = Attribute.make ~owner:"agg" ~name:"count"

let agg_schema input ~by =
  Array.of_list
    (List.filter (fun a -> Tuple.position input.schema a <> None) by
    @ [ agg_count_attr ])

let hash_aggregate input ~by =
  let schema = agg_schema input ~by in
  lazy_array schema (fun () ->
      let table = Hashtbl.create 64 in
      let order = ref [] in
      Array.iter
        (fun row ->
          let key = key_of input.schema by row in
          match Hashtbl.find_opt table key with
          | Some n -> Hashtbl.replace table key (n + 1)
          | None ->
            Hashtbl.replace table key 1;
            order := key :: !order)
        (materialize input);
      Array.of_list
        (List.rev_map
           (fun key ->
             Array.of_list (key @ [ Value.Int (Hashtbl.find table key) ]))
           !order))

let stream_aggregate input ~by =
  let schema = agg_schema input ~by in
  lazy_array schema (fun () ->
      let out = ref [] in
      let current = ref None in
      let flush () =
        match !current with
        | Some (key, n) -> out := Array.of_list (key @ [ Value.Int n ]) :: !out
        | None -> ()
      in
      Array.iter
        (fun row ->
          let key = key_of input.schema by row in
          match !current with
          | Some (k, n) when List.equal Value.equal k key ->
            current := Some (k, n + 1)
          | _ ->
            flush ();
            current := Some (key, 1))
        (materialize input);
      flush ();
      Array.of_list (List.rev !out))

let null input = input
