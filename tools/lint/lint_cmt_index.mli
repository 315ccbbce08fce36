(** Whole-repo typed index built from [.cmt]/[.cmti] artifacts.

    One load pass produces, for every compilation unit in the repo:
    structure-level value definitions, the references between them (the
    call-graph edges), typed events the deep rules consume (polymorphic
    compare/equality uses with instantiated types, allocation smells,
    scheduled closures, determinism sources), [.mli] exports, and a
    transparent type-abbreviation table.

    Identifiers are qualified def ids: ["Planck_util__Heap.add"],
    ["Planck_netsim__Engine.Timer.cancel"]. Dune's wrapped-library
    aliases and local [module X = ...] aliases are normalised away so
    the graph has one node per value. *)

type ty_shape =
  | Imm  (** int / char / bool / unit — safe under polymorphic compare *)
  | TFloat
  | TString
  | TPoly  (** still a type variable at the use site *)
  | TOther of string  (** structured type; payload is the rendered type *)

type source_kind = Wall_clock | Ambient_random | Hashtbl_iter

type mutability =
  | Mut_none  (** transitively immutable *)
  | Mut_atomic  (** mutability only behind [Stdlib.Atomic] (or a lock) *)
  | Mut_yes  (** contains a plain mutable field / ref / array / Hashtbl *)

val mut_join : mutability -> mutability -> mutability
(** Lattice join: [Mut_yes > Mut_atomic > Mut_none]. *)

type ref_op = Rread | Rwrite | Rrmw

type event_kind =
  | Poly_fun of { op : string; shape : ty_shape; rendered : string }
  | Poly_eq of {
      op : string;
      shape : ty_shape;
      rendered : string;
      constantish : bool;
    }
  | Alloc of string
  | Schedule_closure of string
  | Source of source_kind * string
  | Ref_op of { op : ref_op; target : string }
      (** [!x] / [x := e] / [incr x], or [x.f] / [x.f <- e], where [x]
          is a module-level binding of an indexed unit ([target] is its
          qualified id). Locals never produce these events. *)

type event = {
  e_def : string;
  e_file : string;
  e_line : int;
  e_col : int;
  e_kind : event_kind;
  e_in_raise : bool;
}

type def = { d_id : string; d_unit : string; d_file : string; d_line : int }

type export = { x_id : string; x_unit : string; x_file : string; x_line : int }

type binding = {
  b_id : string;  (** qualified id, e.g. ["Planck_telemetry__Metrics.default"] *)
  b_unit : string;
  b_file : string;
  b_line : int;
  b_arrow : bool;  (** the binding is a function *)
  b_type_mut : mutability;
      (** transitive mutability of the binding's type (for arrows: of
          the final result type — the constructor/accessor discipline) *)
  b_alloc : mutability;
      (** worst mutable allocation the module-init expression performs
          outside any lambda — catches closure-captured counters whose
          arrow type hides the state *)
  b_rendered : string;  (** the rendered type, for reports *)
}

type t

val load : dirs:string list -> t
(** Recursively scan [dirs] for [.cmt]/[.cmti] files and index every
    unit whose source file is repo-relative (lib/ bin/ bench/ examples/
    tools/ test/). Unreadable or version-mismatched files are skipped. *)

val unit_count : t -> int

val events : t -> event list
val exports : t -> export list

val bindings : t -> binding list
(** Every structure-level value binding of every indexed implementation
    unit, classified for mutability, sorted by id. Classification is
    computed here (not during the load) so type declarations from every
    unit — including shapes an [.mli] exports abstract — are visible. *)

val find_def : t -> string -> def option

val edges_of : t -> string -> Set.Make(String).t
val iter_edges : t -> (string -> Set.Make(String).t -> unit) -> unit

val referencing_units : t -> string -> string list
(** Units containing at least one reference to the given def id. *)

val functor_used_unit : t -> string -> bool
(** True when the unit was passed to a functor, included, or packed —
    all its exports must then be considered referenced. *)

val note_unit_ref : t -> from_unit:string -> target:string -> unit
(** Record an external reference by hand (used by tests). *)

val suffix_matches : pattern:string -> string -> bool
(** Dotted-suffix match: ["Engine.schedule"] matches
    ["Planck_netsim__Engine.schedule"] and ["Fix.Engine.schedule"], not
    ["X.reschedule"]. Exposed for sink/pattern matching in rules. *)

val any_suffix_matches : string list -> string -> bool

val add_typed_source : t -> unit_name:string -> file:string -> source:string -> unit
(** Type-check [source] in-process and index it as implementation unit
    [unit_name]. The environment is the stdlib plus every unit added
    to [t] this way before, so fixtures can reference each other. For
    test fixtures. *)

val add_typed_interface :
  t -> unit_name:string -> file:string -> source:string -> unit
(** Same, for an [.mli] source: records exports and manifests. *)
