(* Central name constants for operators, algorithms and descriptor
   properties, so rule definitions, initializers, the executor and tests
   cannot drift apart on spelling. *)

(* abstract operators *)
let ret = "RET"
let join = "JOIN"
let sort = "SORT"
let select = "SELECT"
let project = "PROJECT"
let mat = "MAT"
let unnest = "UNNEST"
let agg = "AGG" (* aggregate add-on: group-and-count *)
let ship = "SHIP" (* distributed algebra: move a stream between sites *)

(* algorithms *)
let file_scan = "File_scan"
let index_scan = "Index_scan"
let hash_join = "Hash_join"
let pointer_join = "Pointer_join"
let merge_sort = "Merge_sort"
let filter = "Filter"
let project_alg = "Project_alg"
let mat_deref = "Mat_deref"
let unnest_scan = "Unnest_scan"
let hash_agg = "Hash_agg"
let sort_agg = "Sort_agg"

(* descriptor properties *)
let p_attributes = "attributes"
let p_num_records = "num_records"
let p_tuple_size = "tuple_size"
let p_tuple_order = "tuple_order"
let p_selection_predicate = "selection_predicate"
let p_join_predicate = "join_predicate"
let p_projected_attributes = "projected_attributes"
let p_mat_attribute = "mat_attribute"
let p_unnest_attribute = "unnest_attribute"
let p_indexes = "indexes"
let p_file_name = "file_name"
let p_cost = "cost"
let p_group_attributes = "group_attributes"
let p_site = "site" (* distributed algebra: where the stream lives *)
