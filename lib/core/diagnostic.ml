module Json = Prairie_util.Json

type severity =
  | Error
  | Warning
  | Info

type span = {
  line : int;
  column : int;
}

type t = {
  code : string;
  severity : severity;
  rule : string option;
  span : span option;
  message : string;
  hint : string option;
  related : (string * span) list;
}

let make ?(severity = Error) ?rule ?span ?hint ?(related = []) ~code message =
  { code; severity; rule; span; message; hint; related }

let error = make ~severity:Error
let warning = make ~severity:Warning
let info = make ~severity:Info
let is_error d = d.severity = Error
let is_warning d = d.severity = Warning

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let compare_span a b =
  match (a, b) with
  | None, None -> 0
  | None, Some _ -> 1 (* spanless diagnostics sort after located ones *)
  | Some _, None -> -1
  | Some x, Some y ->
    let c = Int.compare x.line y.line in
    if c <> 0 then c else Int.compare x.column y.column

(* Stable report order: source position, then severity, code, rule and
   message.  Total, so [List.sort_uniq compare] both orders and dedupes. *)
let compare a b =
  let c = compare_span a.span b.span in
  if c <> 0 then c
  else
    let c = Int.compare (severity_rank a.severity) (severity_rank b.severity) in
    if c <> 0 then c
    else
      let c = String.compare a.code b.code in
      if c <> 0 then c
      else
        let c = Option.compare String.compare a.rule b.rule in
        if c <> 0 then c
        else
          let c = String.compare a.message b.message in
          if c <> 0 then c
          else
            let c = Option.compare String.compare a.hint b.hint in
            if c <> 0 then c
            else
              List.compare
                (fun (ra, sa) (rb, sb) ->
                  let c = String.compare ra rb in
                  if c <> 0 then c else compare_span (Some sa) (Some sb))
                a.related b.related

let normalize ds = List.sort_uniq compare ds
let errors ds = List.filter is_error ds
let warnings ds = List.filter is_warning ds

let summary ds =
  List.fold_left
    (fun (e, w, i) d ->
      match d.severity with
      | Error -> (e + 1, w, i)
      | Warning -> (e, w + 1, i)
      | Info -> (e, w, i + 1))
    (0, 0, 0) ds

(* Checkers (lint, verify) publish their code tables in this shape so the
   CLI and docs can enumerate them uniformly.  The P-code namespace is
   shared: P0xx static lint, P2xx semantic verification. *)
type catalogue = (string * severity * string) list

let catalogue_find catalogue code =
  List.find_map
    (fun (c, sev, descr) -> if String.equal c code then Some (sev, descr) else None)
    catalogue

let catalogue_codes catalogue = List.map (fun (c, _, _) -> c) catalogue

let to_string d =
  let b = Buffer.create 80 in
  Buffer.add_string b (severity_to_string d.severity);
  Buffer.add_string b ("[" ^ d.code ^ "]");
  (match d.span with
  | Some s -> Buffer.add_string b (Printf.sprintf " %d:%d" s.line s.column)
  | None -> ());
  (match d.rule with
  | Some r -> Buffer.add_string b (" (" ^ r ^ ")")
  | None -> ());
  Buffer.add_string b (": " ^ d.message);
  (match d.hint with
  | Some h -> Buffer.add_string b ("\n  hint: " ^ h)
  | None -> ());
  List.iter
    (fun (r, s) ->
      Buffer.add_string b
        (Printf.sprintf "\n  related: %s at %d:%d" r s.line s.column))
    d.related;
  Buffer.contents b

let pp ppf d = Format.pp_print_string ppf (to_string d)

let to_json d =
  let fields =
    [
      Some (Printf.sprintf "\"code\":%s" (Json.string d.code));
      Some
        (Printf.sprintf "\"severity\":%s"
           (Json.string (severity_to_string d.severity)));
      Option.map (fun r -> Printf.sprintf "\"rule\":%s" (Json.string r)) d.rule;
      Option.map
        (fun s -> Printf.sprintf "\"line\":%d,\"column\":%d" s.line s.column)
        d.span;
      Some (Printf.sprintf "\"message\":%s" (Json.string d.message));
      Option.map (fun h -> Printf.sprintf "\"hint\":%s" (Json.string h)) d.hint;
      (match d.related with
      | [] -> None
      | rs ->
        Some
          (Printf.sprintf "\"related\":[%s]"
             (String.concat ","
                (List.map
                   (fun (r, s) ->
                     Printf.sprintf "{\"rule\":%s,\"line\":%d,\"column\":%d}"
                       (Json.string r) s.line s.column)
                   rs))));
    ]
  in
  "{" ^ String.concat "," (List.filter_map Fun.id fields) ^ "}"
