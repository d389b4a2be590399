module Descriptor = Prairie.Descriptor
module Expr = Prairie.Expr
module Span = Prairie_obs.Span

type gid = int

type lnode =
  | L_op of string
  | L_file of string

(* [inputs] is canonicalized *in place* during post-merge repair: a slot is
   only ever overwritten with the canonical id of its previous value, so
   [canonical inputs.(i)] is stable across the mutation and matching
   results are unaffected.  The record itself is never re-allocated —
   member identity (and the packed [tried] keys hanging off [id]) survives
   repair. *)
type lexpr = {
  id : int;
  node : lnode;
  arg : Descriptor.t;
  inputs : gid array;
}

type gtree =
  | Gleaf of gid
  | Gnode of string * Descriptor.t * gtree list

type winner = {
  plan : Plan.t option;
  cost : float;
  searched_limit : float;
}

(* [members] is kept newest-first (insertion prepends), so [lexprs] returns
   it without allocating; older code stored it oldest-first and paid a
   [List.rev] per call in the innermost explore/cost loops.

   [w_epoch] keys this group's entries in the winner store; bumping it on
   merge invalidates every memoized winner in O(1). *)
type group = {
  g_id : gid;
  mutable members : lexpr list;
  mutable desc : Descriptor.t;
  mutable explored : bool;
  mutable exploring : bool;
  mutable w_epoch : int;
}

module Key = struct
  type t = lnode * Descriptor.t * gid array

  let node_equal n1 n2 =
    match (n1, n2) with
    | L_op a, L_op b | L_file a, L_file b -> String.equal a b
    | L_op _, L_file _ | L_file _, L_op _ -> false

  let equal (n1, d1, i1) (n2, d2, i2) =
    node_equal n1 n2
    && Array.length i1 = Array.length i2
    && Array.for_all2 Int.equal i1 i2
    && Descriptor.equal d1 d2

  (* Allocation-free: combines the cached descriptor hash with the node name
     and input gids directly, instead of hashing a freshly built
     (node, hash, list) tuple per probe. *)
  let node_hash = function
    | L_op s -> Hashtbl.hash s
    | L_file s -> Hashtbl.hash s lxor 0x2f6e5a

  let hash (n, d, i) =
    let h = ref (node_hash n lxor Descriptor.hash d) in
    Array.iter (fun g -> h := (!h * 31) + g) i;
    !h land max_int
end

module Ktbl = Hashtbl.Make (Key)

(* Winners live in one store keyed by (group, epoch, required descriptor)
   instead of per-group tables: the epoch indirection turns per-merge
   winner invalidation from a table reset into one counter bump. *)
module Wkey = struct
  type t = int * int * Descriptor.t

  let equal (g1, e1, d1) (g2, e2, d2) =
    g1 = g2 && e1 = e2 && Descriptor.equal d1 d2

  let hash (g, e, d) = ((((g * 31) + e) * 31) + Descriptor.hash d) land max_int
end

module Wtbl = Hashtbl.Make (Wkey)

type t = {
  parents : (gid, gid) Hashtbl.t;
  groups : (gid, group) Hashtbl.t;  (** canonical gid -> group *)
  mutable next_gid : int;
  mutable next_lexpr : int;
  index : (int * gid) Ktbl.t;  (** dedup: key -> (lexpr id, group) *)
  uses : (gid, (lexpr * gid) list) Hashtbl.t;
      (** canonical-at-registration input gid -> (user lexpr, its owner
          group at registration): the members whose input slots must be
          rewritten when that group dies in a merge *)
  dead_lexprs : (int, unit) Hashtbl.t;
      (** ids of members dropped as duplicates; their stale [uses] entries
          are skipped lazily *)
  tried : (int, unit) Hashtbl.t;
      (** (lexpr id, trans-rule id) packed into one int — see [tried_key] *)
  winners : winner Wtbl.t;
  stats : Stats.t;
  spans : Span.t option;
}

let create ?spans () =
  {
    parents = Hashtbl.create 64;
    groups = Hashtbl.create 64;
    next_gid = 0;
    next_lexpr = 0;
    index = Ktbl.create 256;
    uses = Hashtbl.create 256;
    dead_lexprs = Hashtbl.create 64;
    tried = Hashtbl.create 256;
    winners = Wtbl.create 512;
    stats = Stats.create ();
    spans;
  }

let stats t = t.stats

let rec canonical t g =
  match Hashtbl.find_opt t.parents g with
  | None -> g
  | Some p ->
    let root = canonical t p in
    if root <> p then Hashtbl.replace t.parents g root;
    root

let group t g = Hashtbl.find t.groups (canonical t g)
let group_desc t g = (group t g).desc
let lexprs t g = (group t g).members
let group_count t = Hashtbl.length t.groups

let lexpr_count t =
  Hashtbl.fold (fun _ g n -> n + List.length g.members) t.groups 0

let groups t =
  Hashtbl.fold (fun gid _ acc -> gid :: acc) t.groups [] |> List.sort Int.compare

let is_explored t g = (group t g).explored
let set_explored t g v = (group t g).explored <- v
let is_exploring t g = (group t g).exploring
let set_exploring t g v = (group t g).exploring <- v

(* Rule ids are positions in the rule set's transformation list, so they fit
   comfortably in 20 bits; packing avoids allocating a tuple key on every
   "already tried?" probe in the explore loop. *)
let tried_key (le : lexpr) rule = (le.id lsl 20) lor rule
let rule_tried t (le : lexpr) rule = Hashtbl.mem t.tried (tried_key le rule)
let mark_rule_tried t (le : lexpr) rule =
  Hashtbl.replace t.tried (tried_key le rule) ()

let find_winner t g req =
  let g = canonical t g in
  let grp = Hashtbl.find t.groups g in
  t.stats.Stats.winner_probes <- t.stats.Stats.winner_probes + 1;
  let r = Wtbl.find_opt t.winners (g, grp.w_epoch, req) in
  (match r with
  | Some _ -> t.stats.Stats.winner_hits <- t.stats.Stats.winner_hits + 1
  | None -> ());
  r

let set_winner t g req w =
  let g = canonical t g in
  let grp = Hashtbl.find t.groups g in
  Wtbl.replace t.winners (g, grp.w_epoch, req) w

let clear_winners t =
  Hashtbl.iter (fun _ g -> g.w_epoch <- g.w_epoch + 1) t.groups;
  Wtbl.reset t.winners

(* [span] threads the innermost open span (the caller's [Memo_insert]
   span, when a sink is attached) down to the event sites. *)
let fresh_group t ~span desc =
  let g =
    {
      g_id = t.next_gid;
      members = [];
      desc;
      explored = false;
      exploring = false;
      w_epoch = 0;
    }
  in
  t.next_gid <- t.next_gid + 1;
  Hashtbl.replace t.groups g.g_id g;
  t.stats.Stats.groups_created <- t.stats.Stats.groups_created + 1;
  (match t.spans with
  | None -> ()
  | Some sink -> Span.emit sink ?span (Span.Group_created { gid = g.g_id }));
  g

(* Post-merge repair worklist (FIFO): merges to perform plus members whose
   index entry must be revisited once a queued merge lands. *)
type repair =
  | R_merge of gid * gid
  | R_reindex of lexpr * gid  (** member, owner group (any alias) *)

(* Re-canonicalize one member's input slots in place and refresh its dedup
   index entry.  The old entry is removed *before* the array is mutated —
   the index shares the member's input array as its key, so mutating first
   would leave the binding in a stale bucket.  A collision with a member
   of the same canonical group drops the younger duplicate (the batch
   normalizer kept the oldest occurrence); a collision across groups
   enqueues the merge it proves, plus a re-check of this member for the
   dedup that becomes possible once the merge lands. *)
let reindex t q (le : lexpr) owner =
  let k_old = (le.node, le.arg, le.inputs) in
  (match Ktbl.find_opt t.index k_old with
  | Some (id, _) when id = le.id -> Ktbl.remove t.index k_old
  | Some _ | None -> ());
  let n = Array.length le.inputs in
  for i = 0 to n - 1 do
    let g = le.inputs.(i) in
    let c = canonical t g in
    if c <> g then le.inputs.(i) <- c
  done;
  let owner = canonical t owner in
  let k = (le.node, le.arg, le.inputs) in
  match Ktbl.find_opt t.index k with
  | None -> Ktbl.replace t.index k (le.id, owner)
  | Some (oid, _) when oid = le.id -> Ktbl.replace t.index k (le.id, owner)
  | Some (oid, ogid) ->
    let og = canonical t ogid in
    if og <> owner then begin
      Queue.add (R_merge (owner, og)) q;
      Queue.add (R_reindex (le, owner)) q
    end
    else begin
      let keep, drop = if oid < le.id then (oid, le.id) else (le.id, oid) in
      Hashtbl.replace t.dead_lexprs drop ();
      let grp = Hashtbl.find t.groups owner in
      grp.members <- List.filter (fun (m : lexpr) -> m.id <> drop) grp.members;
      Ktbl.replace t.index k (keep, owner)
    end

let merge_one t ~span q x y =
  let x = canonical t x in
  let y = canonical t y in
  if x <> y then begin
    let survivor, dead = if x < y then (x, y) else (y, x) in
    let gs = Hashtbl.find t.groups survivor in
    let gd = Hashtbl.find t.groups dead in
    let dead_members = gd.members in
    Hashtbl.remove t.groups dead;
    Hashtbl.replace t.parents dead survivor;
    (* newest-first concatenation: the dead group's members are "newer" than
       the survivor's, matching the pre-merge [lexprs] order. *)
    gs.members <- dead_members @ gs.members;
    gs.explored <- false;
    gs.exploring <- gs.exploring || gd.exploring;
    gs.w_epoch <- gs.w_epoch + 1;
    t.stats.Stats.groups_merged <- t.stats.Stats.groups_merged + 1;
    (match t.spans with
    | None -> ()
    | Some sink -> Span.emit sink ?span (Span.Groups_merged { survivor; dead }));
    (* Rewrite the input slots of everything that referenced the dead
       group; their registrations move to the survivor. *)
    (match Hashtbl.find_opt t.uses dead with
    | None -> ()
    | Some users ->
      Hashtbl.remove t.uses dead;
      let surv_users =
        Option.value (Hashtbl.find_opt t.uses survivor) ~default:[]
      in
      Hashtbl.replace t.uses survivor (List.rev_append users surv_users);
      List.iter
        (fun (le, owner) ->
          if not (Hashtbl.mem t.dead_lexprs le.id) then reindex t q le owner)
        users);
    (* The dead group's own members may now duplicate survivors (and their
       index entries carry a stale owner either way). *)
    List.iter
      (fun (le : lexpr) ->
        if not (Hashtbl.mem t.dead_lexprs le.id) then reindex t q le survivor)
      dead_members
  end

(* Merge two groups proven equal; the smaller id survives.  Repair is
   incremental: only the recorded users of the dead group have their input
   slots rewritten, and only the dead group's members are re-checked
   against the dedup index — the old implementation re-canonicalized every
   member of every group and rebuilt the whole index per merge, which
   dominated large searches (84% of fig13 wall time under the span
   profiler).  Newly revealed duplicates cascade through the FIFO until
   the index is congruence-closed. *)
let merge t ~span a b =
  let a = canonical t a in
  let b = canonical t b in
  if a = b then a
  else begin
    let q = Queue.create () in
    Queue.add (R_merge (a, b)) q;
    while not (Queue.is_empty q) do
      match Queue.pop q with
      | R_merge (x, y) -> merge_one t ~span q x y
      | R_reindex (le, owner) ->
        if not (Hashtbl.mem t.dead_lexprs le.id) then reindex t q le owner
    done;
    canonical t a
  end

(* Insert a logical expression, deduplicating globally.  Returns the group
   it lives in and whether it is new. *)
let insert_lexpr t ~span ?into node arg inputs =
  let inputs = Array.map (canonical t) inputs in
  (* [inputs] is already canonical, so the key can share the array instead of
     re-canonicalizing through [key_of]. *)
  let key = (node, arg, inputs) in
  match Ktbl.find_opt t.index key with
  | Some (_, g) ->
    t.stats.Stats.lexpr_duplicates <- t.stats.Stats.lexpr_duplicates + 1;
    let g = canonical t g in
    let g =
      match into with
      | Some target when canonical t target <> g -> merge t ~span target g
      | _ -> g
    in
    (g, false)
  | None ->
    let grp =
      match into with
      | Some target -> group t target
      | None -> fresh_group t ~span arg
    in
    let le = { id = t.next_lexpr; node; arg; inputs } in
    t.next_lexpr <- t.next_lexpr + 1;
    grp.members <- le :: grp.members;
    grp.explored <- false;
    Ktbl.replace t.index key (le.id, grp.g_id);
    (* Register this member under each distinct input group so a merge
       killing that group knows to rewrite the slot. *)
    let n = Array.length inputs in
    for i = 0 to n - 1 do
      let gi = inputs.(i) in
      let dup = ref false in
      for j = 0 to i - 1 do
        if inputs.(j) = gi then dup := true
      done;
      if not !dup then
        Hashtbl.replace t.uses gi
          ((le, grp.g_id)
          :: Option.value (Hashtbl.find_opt t.uses gi) ~default:[])
    done;
    t.stats.Stats.lexprs_created <- t.stats.Stats.lexprs_created + 1;
    (canonical t grp.g_id, true)

let rec insert_expr_rec t ~span (e : Expr.t) =
  match e with
  | Expr.Stored (name, d) -> fst (insert_lexpr t ~span (L_file name) d [||])
  | Expr.Node (Expr.Operator, name, d, inputs) ->
    let gids = Array.of_list (List.map (insert_expr_rec t ~span) inputs) in
    fst (insert_lexpr t ~span (L_op name) d gids)
  | Expr.Node (Expr.Algorithm, name, _, _) ->
    invalid_arg ("Memo.insert_expr: algorithm node " ^ name)

let insert_expr t ?span_parent e =
  match t.spans with
  | None -> insert_expr_rec t ~span:None e
  | Some sink ->
    let h = Span.enter sink ?parent:span_parent Span.Memo_insert in
    Fun.protect
      ~finally:(fun () -> Span.exit sink h)
      (fun () -> insert_expr_rec t ~span:(Some h) e)

let rec insert_gtree_rec t ~span ?into tree =
  match tree with
  | Gleaf g -> (canonical t g, false)
  | Gnode (name, desc, subs) ->
    let fresh = ref false in
    let gids =
      Array.of_list
        (List.map
           (fun sub ->
             let g, f = insert_gtree_rec t ~span sub in
             if f then fresh := true;
             g)
           subs)
    in
    let g, f = insert_lexpr t ~span ?into (L_op name) desc gids in
    (g, f || !fresh)

let insert_gtree t ?into ?span_parent tree =
  match t.spans with
  | None -> insert_gtree_rec t ~span:None ?into tree
  | Some sink ->
    let h = Span.enter sink ?parent:span_parent Span.Memo_insert in
    Fun.protect
      ~finally:(fun () -> Span.exit sink h)
      (fun () -> insert_gtree_rec t ~span:(Some h) ?into tree)
