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
  | Blocking of string
      (** reference to a call that can park the running domain
          (Mutex.lock/protect, Condition.wait, Domain.join, Unix I/O,
          stdout/stderr formatters) — consumed by the ownership tier's
          blocking-in-shard-body rule *)

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
  b_id : string;  (** qualified id, e.g. ["Planck_netsim__Engine.aggregate_hw"] *)
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

(* ---- Ownership-tier records ---- *)

type spsc_role = Producer | Consumer

type transfer_site = {
  s_def : string;
  s_file : string;
  s_line : int;
  s_point : string;  (** the matched pattern, e.g. ["Spsc.push"] *)
}
(** Every call site of a transfer point ([Spsc.push], [Timer.cancel],
    [Buffer_pool.release]), violation or not — the committed ownership
    inventory is built from these. *)

type spsc_site = {
  sp_def : string;
  sp_file : string;
  sp_line : int;
  sp_role : spsc_role;
  sp_op : string;  (** push / pop / peek / drain *)
  sp_chan : string;
      (** best-effort channel identity: the resolved def id when the
          receiver is a structure-level binding, ["local:<def>"] for a
          let-bound local, ["field:<type>.<label>"] for a record field *)
}

type transfer_use = {
  u_def : string;
  u_file : string;
  u_line : int;
  u_col : int;
  u_var : string;  (** source name of the transferred binding *)
  u_point : string;  (** the transfer pattern it flowed into *)
  u_kind : Lint_transfer.use_kind;
  u_transfer_line : int;
  u_mut : mutability;
      (** of the transferred value's type — [Mut_none] payloads are
          exempt from use-after-transfer (reading an immutable value
          the consumer also reads races nothing) *)
}

type release_leak = {
  k_def : string;
  k_file : string;
  k_line : int;
  k_col : int;
  k_alloc_line : int;  (** the successful [try_alloc] condition *)
  k_raise : string;  (** the raise-family callee on the leaking path *)
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

val transfer_uses : t -> transfer_use list
(** Use-after-transfer facts from the per-binding intraprocedural scan
    ({!Lint_transfer}), with the operand's mutability classified
    lazily — like {!bindings}, after every unit's decls are loaded. *)

val release_leaks : t -> release_leak list
val transfer_sites : t -> transfer_site list
val spsc_sites : t -> spsc_site list

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
