type account = {
  mutable matched : int;
  mutable bindings : int;
  mutable applied : int;
  mutable fresh : int;
  mutable rejected_test : int;
  mutable rejected_pruned : int;
}

type t = {
  mutable groups_created : int;
  mutable groups_merged : int;
  mutable lexprs_created : int;
  mutable lexpr_duplicates : int;
  mutable impl_firings : int;
  mutable enforcer_firings : int;
  mutable memo_hits : int;
  mutable optimize_calls : int;
  mutable pruned : int;
  mutable winner_probes : int;
  mutable winner_hits : int;
  mutable winner_changes : int;
  trans : (string, account) Hashtbl.t;
  impl : (string, account) Hashtbl.t;
}

let create () =
  {
    groups_created = 0;
    groups_merged = 0;
    lexprs_created = 0;
    lexpr_duplicates = 0;
    impl_firings = 0;
    enforcer_firings = 0;
    memo_hits = 0;
    optimize_calls = 0;
    pruned = 0;
    winner_probes = 0;
    winner_hits = 0;
    winner_changes = 0;
    trans = Hashtbl.create 32;
    impl = Hashtbl.create 32;
  }

(* [Hashtbl.find] rather than [find_opt]: a hit, the common case, then
   allocates nothing *)
let account tbl name =
  match Hashtbl.find tbl name with
  | a -> a
  | exception Not_found ->
    let a =
      {
        matched = 0;
        bindings = 0;
        applied = 0;
        fresh = 0;
        rejected_test = 0;
        rejected_pruned = 0;
      }
    in
    Hashtbl.add tbl name a;
    a

let trans_account t name = account t.trans name
let impl_account t name = account t.impl name

let count p tbl = Hashtbl.fold (fun _ a n -> if p a then n + 1 else n) tbl 0
let was_matched a = a.matched > 0
let was_applied a = a.applied > 0
let trans_matched_count t = count was_matched t.trans
let impl_matched_count t = count was_matched t.impl
let trans_applied_count t = count was_applied t.trans
let impl_applied_count t = count was_applied t.impl
let trans_applications t = Hashtbl.fold (fun _ a n -> n + a.applied) t.trans 0

let accounts tbl =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun name a acc -> (name, a) :: acc) tbl [])

let trans_accounts t = accounts t.trans
let impl_accounts t = accounts t.impl

let pp ppf t =
  Format.fprintf ppf
    "@[<v>groups: %d (merged %d)@,logical expressions: %d (dups %d)@,\
     trans applications: %d (distinct matched %d)@,\
     impl firings: %d (distinct matched %d)@,\
     enforcer firings: %d@,memo hits: %d@,optimize calls: %d@,pruned: %d@,\
     winner probes: %d (hits %d)@]"
    t.groups_created t.groups_merged t.lexprs_created t.lexpr_duplicates
    (trans_applications t) (trans_matched_count t) t.impl_firings
    (impl_matched_count t) t.enforcer_firings t.memo_hits t.optimize_calls
    t.pruned t.winner_probes t.winner_hits
