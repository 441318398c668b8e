(* The suppression ledger shared by every lint pass.

   Every [@lint.allow] attribute the walkers encounter is registered
   here as a [site]; when a would-be finding is silenced by one, the
   site is marked used. After all passes have run, a site that silenced
   nothing — and whose rules were all actually checked this run — is a
   stale suppression: the code it excused is gone, and keeping it around
   would let future violations hide under it. The driver reports those
   as `unused-allow` warnings (and stale lint.allow file entries, which
   Allowlist tracks the same way, as `stale-allowlist` errors). *)

open Parsetree

type site = {
  file : string;
  line : int;
  col : int;
  rules : string list; (* rule names; ["*"] = every rule *)
  mutable used : bool;
}

type t = {
  tbl : (string * int * int, site) Hashtbl.t;
  mutable checked : string list; (* rule names some pass actually checked *)
}

let create () = { tbl = Hashtbl.create 64; checked = [] }

let note_checked t names =
  List.iter (fun n -> if not (List.mem n t.checked) then t.checked <- n :: t.checked) names

let checked_rules t = t.checked

(* [@lint.allow "rule-a,rule-b"]; a bare [@lint.allow] allows every rule. *)
let rules_of_attr (a : attribute) =
  if a.attr_name.txt <> "lint.allow" then None
  else
    match a.attr_payload with
    | PStr [] -> Some [ "*" ]
    | PStr
        [
          {
            pstr_desc =
              Pstr_eval ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
            _;
          };
        ] ->
        Some
          (String.split_on_char ',' s
          |> List.concat_map (String.split_on_char ' ')
          |> List.filter (fun r -> r <> ""))
    | _ -> Some [ "*" ]

(* Idempotent per (file, line, col): every pass registers the attributes
   it meets, and they share one [used] flag. *)
let register t ~file ~loc ~rules =
  let pos = loc.Location.loc_start in
  let line = pos.Lexing.pos_lnum and col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol + 1 in
  let key = (file, line, col) in
  match Hashtbl.find_opt t.tbl key with
  | Some site -> site
  | None ->
      let site = { file; line; col; rules; used = false } in
      Hashtbl.add t.tbl key site;
      site

let mark_used site = site.used <- true

let unused t ~catalogue =
  let checked r =
    if r = "*" then List.for_all (fun c -> List.mem c t.checked) catalogue
    else List.mem r t.checked
  in
  Hashtbl.fold
    (fun _ site acc ->
      if (not site.used) && List.for_all checked site.rules then site :: acc else acc)
    t.tbl []
  |> List.sort (fun a b ->
         let c = String.compare a.file b.file in
         if c <> 0 then c
         else
           let c = Int.compare a.line b.line in
           if c <> 0 then c else Int.compare a.col b.col)

(* ------------------------------------------------------------------ *)
(* Scoped-emission context: the common machinery of every pass. A pass
   pushes the [@lint.allow] entries in scope as it descends and calls
   [emit]; suppression marks the responsible sites used, and allowlist
   hits mark the file entry used, so hygiene reporting is a by-product
   of normal linting.                                                  *)
(* ------------------------------------------------------------------ *)

type scope_entry = { rule_name : string; site : site option }

type ctx = {
  ctx_file : string;
  enabled : string -> bool;
  allowlist : Allowlist.t;
  registry : t option;
  mutable scope : scope_entry list;
  mutable out : Finding.t list;
}

let make_ctx ?registry ~enabled ~allowlist ~file () =
  { ctx_file = file; enabled; allowlist; registry; scope = []; out = [] }

let scope_entries_of_attrs ctx attrs =
  List.concat_map
    (fun a ->
      match rules_of_attr a with
      | None -> []
      | Some rules ->
          let site =
            match ctx.registry with
            | None -> None
            | Some t ->
                Some (register t ~file:ctx.ctx_file ~loc:a.attr_loc ~rules)
          in
          List.map (fun rule_name -> { rule_name; site }) rules)
    attrs

let with_attrs ctx attrs f =
  match attrs with
  | [] -> f ()
  | _ ->
      let saved = ctx.scope in
      ctx.scope <- scope_entries_of_attrs ctx attrs @ ctx.scope;
      Fun.protect ~finally:(fun () -> ctx.scope <- saved) f

(* A type constraint is folded into the node it constrains; its
   attributes ride in [exp_extra]. *)
let with_expr ctx (e : Typedtree.expression) f =
  with_attrs ctx
    (List.fold_left (fun acc (_, _, attrs) -> attrs @ acc) e.exp_attributes e.exp_extra)
    f

let silenced ctx rule =
  match List.filter (fun e -> e.rule_name = rule || e.rule_name = "*") ctx.scope with
  | [] -> Allowlist.allows ctx.allowlist ~rule ~file:ctx.ctx_file
  | suppressors ->
      List.iter (fun e -> Option.iter mark_used e.site) suppressors;
      true

let emit ctx ~loc ~rule message =
  if ctx.enabled rule && not (silenced ctx rule) then
    ctx.out <- Finding.make ~file:ctx.ctx_file ~loc ~rule ~message :: ctx.out

let per_file ?registry ?(enabled = fun _ -> true) ~allowlist f =
  let ctxs = Hashtbl.create 8 in
  f (fun file ->
      match Hashtbl.find_opt ctxs file with
      | Some c -> c
      | None ->
          let c = make_ctx ?registry ~enabled ~allowlist ~file () in
          Hashtbl.add ctxs file c;
          c);
  Hashtbl.fold (fun _ c acc -> c.out @ acc) ctxs [] |> List.sort_uniq Finding.compare
