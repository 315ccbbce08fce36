(** Intraprocedural ownership scan over one typedtree expression.

    Walks a structure-level binding's body in evaluation order and
    reports (a) uses of a local after it flowed into a transfer point
    ([Spsc.push], [Engine.Timer.cancel]) on the current path, with
    [let y = x] alias classes, branch union-merge, double-walked loop
    bodies and fresh-pattern resurrection; and (b) paths where
    [Buffer_pool.try_alloc] succeeded but a direct raise-family call
    escapes before any [Buffer_pool.release].

    Resolver-parameterized so [Lint_cmt_index] can feed its path
    normalisation in without a dependency cycle: [resolve] must return
    the qualified name for structure-level / external values and
    [None] for locals — locals are exactly what the scan tracks. *)

type use_kind = Uread | Uwrite | Urmw | Utransfer

val use_verb : use_kind -> string
(** ["read"], ["written"], ["read-modify-written"], ["transferred
    again"] — for finding messages. *)

type use = {
  u_var : string;  (** source name of the transferred binding *)
  u_point : string;  (** transfer pattern, e.g. ["Spsc.push"] *)
  u_kind : use_kind;
  u_transfer_line : int;  (** where the hand-off happened *)
  u_line : int;  (** where the stale use happened *)
  u_col : int;
  u_ty : Types.type_expr;
      (** instantiated type of the transferred value, classified lazily
          by the caller (immutable payloads are exempt) *)
}

type leak = {
  k_raise : string;  (** the raise-family callee *)
  k_alloc_line : int;  (** the successful [try_alloc] condition *)
  k_line : int;
  k_col : int;
}

val scan :
  resolve:(Path.t -> string option) ->
  Typedtree.expression ->
  use list * leak list
(** Scan one binding body. Results are in source order. *)
