(** The lint: every rule over one set of typed units. *)

val run :
  ?rules:Rule.id list ->
  ?allowlist:Allowlist.t ->
  ?registry:Suppress.t ->
  Cmt_load.unit_info list ->
  Finding.t list
(** Run {!Sites} and, when one of their rules is in [rules] (default:
    {!Rule.all}), {!Escape}, {!Hotpath} and {!Effects}; keep the
    findings of [rules], sorted by {!Finding.compare} without
    duplicates. Suppression sites and checked rules are recorded in
    [registry]. *)
