(** The rule catalog and the syntactic checker.

    Most rules are typed and live in the [.cmt] tiers
    ([Lint_deep_rules], [Lint_taint], [Lint_domain_rules]). The AST pass here implements only the
    rules that need no types — [keyed-poly-equal], [open-lib],
    [ignored-result] — plus the file-level [missing-mli] rule; each is
    scoped by path and by what the module defines. The remaining
    judgement calls go through the suppression syntax
    ([(* planck-lint: allow <rule> -- reason *)]). *)

type rule = {
  id : string;
  group : string;  (** "determinism" | "hotpath" | "hygiene" | "domain" *)
  default_severity : Lint_finding.severity;
  doc : string;
}

val catalog : rule list
(** Every rule the linter knows, in display order. *)

val is_known : string -> bool
(** True for catalog ids and the ["all"] wildcard used in suppressions. *)

val check_structure : path:string -> Parsetree.structure -> Lint_finding.t list
(** Run the AST rules over one parsed implementation. [path] is the
    repo-relative path and drives rule scoping ([lib/] only). *)

val missing_mli : path:string -> has_mli:bool -> Lint_finding.t list
(** The one file-level rule: a [lib/] .ml without a sibling .mli. *)
