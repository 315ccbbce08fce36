(** Parsing, suppression handling, and the file-tree driver. *)

val lint_source :
  ?extra:Lint_finding.t list ->
  path:string ->
  source:string ->
  unit ->
  Lint_finding.t list * Lint_finding.t list
(** [lint_source ~path ~source ()] parses [source] as an implementation,
    runs the syntactic rules, and returns [(kept, suppressed)]: findings
    that survive the file's [(* planck-lint: allow ... *)] directives,
    and those the directives removed. An [allow] directive covers its
    own line and the line below; [allow-file] covers the whole file.
    [extra] merges file-level findings (missing-mli, typed findings)
    into the same suppression pass. [path] is repo-relative and drives
    rule scoping; the file need not exist on disk. *)

type result = {
  kept : Lint_finding.t list;  (** unsuppressed, sorted by location *)
  suppressed_count : int;
  baselined_count : int;  (** typed findings absorbed by the baseline *)
  files_linted : int;
  typed_units : int;  (** cmt units indexed; always > 0 *)
}

type options = {
  cmt_dirs : string list;  (** roots scanned recursively for .cmt/.cmti *)
  baseline_file : string option;
      (** optional [<rule> <symbol> -- justification] baseline; a
          missing file is treated as empty, a malformed one fails *)
  dead_export : bool;
      (** run the dead-export analysis — requires the cmt set to cover
          every referencing unit, or absences fabricate dead exports *)
}

val lint_paths : options -> string list -> result
(** Load the cmt index, run the typed tiers, then walk files and
    directories (recursively; [_build] and dotfiles are skipped), lint
    every [.ml] with the syntactic rules, and apply the missing-mli
    rule using the sibling [.mli] set. Paths are reported as given, so
    run from the repo root with [lib bin bench examples tools]. Inline
    suppressions apply to typed and syntactic findings alike; typed
    findings on files outside the walked set are dropped. Every
    baseline entry of a rule that ran (all of them, or all but
    [dead-export] when it is off) that matches no finding is reported
    as a [stale-baseline] error on the baseline file.
    @raise Failure when no cmt unit is found (build first) or the
    baseline is malformed. *)
