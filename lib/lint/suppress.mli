(** The suppression ledger shared by every lint pass.

    Registers every [[@lint.allow]] site the walkers encounter and
    records which ones actually silenced a finding, so the driver can
    flag suppressions that outlived the code they excused. Also hosts
    the scoped-emission context ({!ctx}) every pass reports through:
    emitting via {!emit} gives a pass attribute scoping, allowlist
    matching and use-tracking for free. *)

type site = {
  file : string;
  line : int;  (** 1-based, of the attribute *)
  col : int;
  rules : string list;  (** rule names; [["*"]] = every rule *)
  mutable used : bool;  (** silenced at least one would-be finding *)
}

type t

val create : unit -> t

val note_checked : t -> string list -> unit
(** Record that a pass checked these rules this run. {!unused} only
    reports a site when every rule it names was checked — an attribute
    for domain-escape is not stale just because [--rules] left that
    rule out. *)

val checked_rules : t -> string list
(** Rule names some pass has reported checking this run. *)

val unused : t -> catalogue:string list -> site list
(** Sites that silenced nothing, restricted to those fully checked this
    run ([catalogue] is the expansion of a bare [[@lint.allow]]).
    Sorted by file, line, col. *)

(** {2 Scoped emission} *)

type ctx

val make_ctx :
  ?registry:t ->
  enabled:(string -> bool) ->
  allowlist:Allowlist.t ->
  file:string ->
  unit ->
  ctx

val with_attrs : ctx -> Parsetree.attributes -> (unit -> unit) -> unit
(** Push the [lint.allow] entries of [attrs] for the duration of the
    callback (registering their sites), restoring the scope after. *)

val with_expr : ctx -> Typedtree.expression -> (unit -> unit) -> unit
(** {!with_attrs} with an expression's attributes, including those of a
    type constraint folded into it ([((e : t) [@lint.allow ...])]), which
    the typed tree keeps in [exp_extra]. Every walker enters an
    expression through this. *)

val silenced : ctx -> string -> bool
(** Whether a scope entry or allowlist entry suppresses the rule here;
    the suppressors are marked used. *)

val emit : ctx -> loc:Location.t -> rule:string -> string -> unit
(** Record a finding of an enabled rule unless it is {!silenced}. *)

val per_file :
  ?registry:t ->
  ?enabled:(string -> bool) ->
  allowlist:Allowlist.t ->
  ((string -> ctx) -> unit) ->
  Finding.t list
(** [per_file ~allowlist f] hands [f] the one ctx of each source file
    ([enabled] defaults to every rule), then returns the findings of
    every ctx, sorted by {!Finding.compare} without duplicates. *)
