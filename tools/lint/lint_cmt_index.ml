(* Whole-repo typed index, built from the compiler's .cmt/.cmti
   artifacts (compiler-libs only — the same dependency footprint as the
   syntactic tier).

   The index is the data layer of the deep tier: one pass over every
   typedtree records

   - defs: structure-level value bindings, qualified by compilation
     unit and submodule path ("Planck_netsim__Engine.Timer.cancel");
   - edges: for each def, every global value it references (callee or
     captured callback — both count for reachability);
   - events: occurrences the deep rules care about, with their
     instantiated types — polymorphic compare/equality/hash uses,
     allocation smells, closure literals handed to the engine, and
     determinism sources (wall clock, ambient randomness, unsorted
     hashtable iteration);
   - exports: every value declared in an .mli, for the dead-export
     rule, plus which units reference each value;
   - manifests: transparent type abbreviations (type t = int), so the
     type classifier can see through them without an Env.

   Paths in a typedtree arrive in several spellings for the same value
   (dune's wrapped-library aliases: [Planck_netsim.Switch.ingress] from
   outside the library, [Planck_netsim__.Switch.ingress] from inside,
   a plain stamped ident from the defining unit itself, and local
   [module T = ...] aliases). [resolve] normalises all of them to the
   defining unit's qualified name so the graph has one node per value. *)

module SS = Set.Make (String)

(* ---- Types ---- *)

type ty_shape =
  | Imm  (** int / char / bool / unit — safe under polymorphic compare *)
  | TFloat
  | TString
  | TPoly  (** still a type variable at the use site *)
  | TOther of string  (** anything structured; payload is the rendered type *)

type source_kind = Wall_clock | Ambient_random | Hashtbl_iter

type mutability = Mut_none | Mut_atomic | Mut_yes

let mut_join a b =
  match (a, b) with
  | Mut_yes, _ | _, Mut_yes -> Mut_yes
  | Mut_atomic, _ | _, Mut_atomic -> Mut_atomic
  | Mut_none, Mut_none -> Mut_none

type ref_op = Rread | Rwrite | Rrmw

type event_kind =
  | Poly_fun of { op : string; shape : ty_shape; rendered : string }
      (** a polymorphic primitive used as a value or applied:
          compare, Hashtbl.hash, ... *)
  | Poly_eq of {
      op : string;
      shape : ty_shape;
      rendered : string;
      constantish : bool;
    }  (** structural =/<> with the instantiated operand type *)
  | Alloc of string  (** Printf/Format/(^)/string_of_* reference *)
  | Schedule_closure of string
      (** closure literal passed to Engine.schedule/schedule_at/every *)
  | Source of source_kind * string  (** determinism-taint source *)
  | Ref_op of { op : ref_op; target : string }
      (** read / write / read-modify-write of a module-level ref or
          mutable field, by qualified binding id *)

type event = {
  e_def : string;  (** enclosing def id *)
  e_file : string;
  e_line : int;
  e_col : int;
  e_kind : event_kind;
  e_in_raise : bool;  (** inside the argument of raise/failwith/... *)
}

type def = { d_id : string; d_unit : string; d_file : string; d_line : int }

type export = { x_id : string; x_unit : string; x_file : string; x_line : int }

(* A structure-level value binding, with the typed facts the domain
   tier classifies on: its type (kept as a Types.type_expr so
   classification can run lazily, after every unit's type declarations
   are loaded) and the worst mutable allocation its module-init
   expression performs (a [ref]/[Hashtbl.create]/... outside any
   lambda — the closure-captured-counter pattern). *)
type raw_binding = {
  rb_id : string;
  rb_unit : string;
  rb_file : string;
  rb_line : int;
  rb_type : Types.type_expr;
  rb_alloc : mutability;
}

(* What the mutability analysis needs of a type declaration: whether it
   declares a mutable field directly (records and inline ctor records),
   the component types to recurse into, and the manifest if any. *)
type decl_shape = {
  ds_mutable : bool;
  ds_subtys : Types.type_expr list;
  ds_manifest : Types.type_expr option;
}

type t = {
  unit_files : (string, string) Hashtbl.t;  (* impl unit -> source file *)
  known_units : (string, unit) Hashtbl.t;  (* impl + intf unit names *)
  defs : (string, def) Hashtbl.t;
  edges : (string, SS.t ref) Hashtbl.t;  (* def id -> referenced ids *)
  ref_units : (string, SS.t ref) Hashtbl.t;  (* target id -> referencing units *)
  mutable events : event list;
  mutable exports : export list;
  manifests : (string, Types.type_expr) Hashtbl.t;  (* "Unit.tyname" *)
  decls : (string, decl_shape) Hashtbl.t;
      (* keyed "Unit.Path.tyname" (cross-unit) AND "Unit#stamped_ident"
         (same-unit local references); impl entries replace intf ones *)
  mod_aliases : (string, Path.t) Hashtbl.t;
      (* structure-level [module P = Planck_x.P] aliases, keyed
         "Unit.P", recorded before any unit is walked: other units'
         references resolve through them, and the lazy classifier
         resolves type paths through them after the per-unit walking
         context is gone *)
  mutable raw_bindings : raw_binding list;
  functor_used : (string, unit) Hashtbl.t;
      (* units passed to functors / included / packed: every export of
         such a unit counts as referenced (the functor sees them all) *)
  mutable fixture_sigs : (string * Types.signature) list;
      (* in-process typed fixture units, newest first *)
}

let create () =
  {
    unit_files = Hashtbl.create 128;
    known_units = Hashtbl.create 256;
    defs = Hashtbl.create 1024;
    edges = Hashtbl.create 1024;
    ref_units = Hashtbl.create 1024;
    events = [];
    exports = [];
    manifests = Hashtbl.create 256;
    decls = Hashtbl.create 256;
    mod_aliases = Hashtbl.create 64;
    raw_bindings = [];
    functor_used = Hashtbl.create 16;
    fixture_sigs = [];
  }

let unit_count t = Hashtbl.length t.unit_files
let events t = t.events
let exports t = t.exports
let find_def t id = Hashtbl.find_opt t.defs id

let edges_of t id =
  match Hashtbl.find_opt t.edges id with Some s -> !s | None -> SS.empty

let iter_edges t f = Hashtbl.iter (fun caller s -> f caller !s) t.edges

let referencing_units t id =
  match Hashtbl.find_opt t.ref_units id with
  | Some s -> SS.elements !s
  | None -> []

let functor_used_unit t u = Hashtbl.mem t.functor_used u

let note_unit_ref t ~from_unit ~target =
  match Hashtbl.find_opt t.ref_units target with
  | Some s -> s := SS.add from_unit !s
  | None -> Hashtbl.replace t.ref_units target (ref (SS.singleton from_unit))

(* ---- Dotted-suffix matching ----

   Patterns like "Engine.schedule" must match
   "Planck_netsim__Engine.schedule" (the wrapped unit name ends in
   "__Engine") as well as "Fixture.Engine.schedule" (a submodule), but
   not "Stdlib.reschedule". The leftmost pattern component may match a
   component suffix only at a "__" boundary. *)

let ends_with ~suffix s =
  let n = String.length s and m = String.length suffix in
  n >= m && String.sub s (n - m) m = suffix

let split_dots s = String.split_on_char '.' s

let suffix_matches ~pattern target =
  let p = split_dots pattern and c = split_dots target in
  let np = List.length p and nc = List.length c in
  if nc < np then false
  else
    let tail = List.filteri (fun i _ -> i >= nc - np) c in
    match (p, tail) with
    | p0 :: prest, c0 :: crest ->
        (c0 = p0 || ends_with ~suffix:("__" ^ p0) c0) && prest = crest
    | _ -> false

let any_suffix_matches patterns target =
  List.exists (fun pattern -> suffix_matches ~pattern target) patterns

(* ---- Interesting externals ---- *)

let poly_fun_ops =
  [
    ("Stdlib.compare", "compare");
    ("Stdlib.Hashtbl.hash", "Hashtbl.hash");
    ("Stdlib.Hashtbl.seeded_hash", "Hashtbl.seeded_hash");
    ("Stdlib.Hashtbl.hash_param", "Hashtbl.hash_param");
  ]

let eq_ops = [ ("Stdlib.=", "="); ("Stdlib.<>", "<>") ]

let alloc_smells =
  [ "Stdlib.^"; "Stdlib.String.concat"; "Stdlib.Bytes.concat";
    "Stdlib.string_of_int"; "Stdlib.string_of_float"; "Stdlib.string_of_bool" ]

let alloc_smell_prefixes = [ "Stdlib.Printf."; "Stdlib.Format." ]

let wall_clock_sources =
  [ "Unix.gettimeofday"; "Unix.time"; "Unix.gmtime"; "Unix.localtime";
    "Unix.mktime"; "Stdlib.Sys.time" ]

let wall_clock_prefixes = [ "Mtime." ]

let raise_like =
  [ "Stdlib.raise"; "Stdlib.raise_notrace"; "Stdlib.failwith";
    "Stdlib.invalid_arg"; "Stdlib.exit" ]

let schedule_ops = [ "Engine.schedule"; "Engine.schedule_at"; "Engine.every" ]

let hashtbl_iter_patterns =
  [ "Hashtbl.iter"; "Hashtbl.fold"; "Table.iter"; "Table.fold" ]

(* [target] is a resolved name, so the stdlib module arrives as
   "Stdlib.Random.int" *)
let ambient_random target =
  let target =
    let p = "Stdlib." in
    let n = String.length p in
    if String.length target > n && String.sub target 0 n = p then
      String.sub target n (String.length target - n)
    else target
  in
  match String.index_opt target '.' with
  | Some i when String.sub target 0 i = "Random" -> (
      let rest = String.sub target (i + 1) (String.length target - i - 1) in
      match rest with
      | "self_init" | "State.make_self_init" -> true
      | _ -> not (String.length rest >= 6 && String.sub rest 0 6 = "State."))
  | _ -> false

(* ---- Path flattening & normalisation ---- *)

let rec flatten_path p acc =
  match p with
  | Path.Pident id -> (id, acc)
  | Path.Pdot (p, s) -> flatten_path p (s :: acc)
  | Path.Papply (f, _) -> flatten_path f acc
  | Path.Pextra_ty (p, _) -> flatten_path p acc

type target =
  | TDef of string  (** a value of an indexed unit, by qualified id *)
  | TExtern of string  (** outside the repo: "Stdlib.Printf.sprintf" *)
  | TNone  (** a local (function parameter, let-bound) value *)

(* A path into another unit may go through a structure-level
   [module X = Path] alias that unit declares (bench's [open Exp_common]
   then [Collector.on_estimate]): follow it to the defining unit so the
   reference lands on the real def. [fuel] bounds alias chains. *)
let rec normalize_unit ?(fuel = 8) t head comps =
  let mk u rest =
    let def () = TDef (u ^ "." ^ String.concat "." rest) in
    match rest with
    | [] -> TExtern u (* bare module reference *)
    | m :: (_ :: _ as tail) when fuel > 0 -> (
        match Hashtbl.find_opt t.mod_aliases (u ^ "." ^ m) with
        | Some p ->
            let head', comps' = flatten_path p [] in
            if Ident.persistent head' || Ident.global head' then
              normalize_unit ~fuel:(fuel - 1) t (Ident.name head')
                (comps' @ tail)
            else def ()
        | None -> def ())
    | _ -> def ()
  in
  match comps with
  | m1 :: rest ->
      let cand = if ends_with ~suffix:"__" head then head ^ m1 else head ^ "__" ^ m1 in
      if Hashtbl.mem t.known_units cand then mk cand rest
      else if Hashtbl.mem t.known_units head then mk head comps
      else TExtern (String.concat "." (head :: comps))
  | [] -> TExtern head

(* ---- Per-unit walking context ---- *)

module ITbl = Hashtbl.Make (struct
  type t = Ident.t

  let equal = Ident.same
  let hash = Hashtbl.hash
end)

type mod_binding = MLocal of string (* def-id prefix inside the unit *)
                 | MAlias of Path.t

type ictx = {
  ix : t;
  unit_name : string;
  file : string;
  mutable cur_def : string;
  mutable raise_depth : int;
  vals : string ITbl.t;  (* structure-level value ident -> def id *)
  mods : mod_binding ITbl.t;
}

let rec resolve_flat ctx (head, comps) =
  if Ident.persistent head || Ident.global head then
    normalize_unit ctx.ix (Ident.name head) comps
  else
    match (ITbl.find_opt ctx.vals head, comps) with
    | Some def_id, [] -> TDef def_id
    | _ -> (
        match ITbl.find_opt ctx.mods head with
        | Some (MAlias p) ->
            let head', comps' = flatten_path p [] in
            resolve_flat ctx (head', comps' @ comps)
        | Some (MLocal prefix) -> (
            match comps with
            | [] -> TNone
            | _ ->
                TDef
                  (ctx.unit_name ^ "." ^ prefix ^ String.concat "." comps))
        | None -> TNone)

let resolve ctx p = resolve_flat ctx (flatten_path p [])

let target_name = function TDef s | TExtern s -> Some s | TNone -> None

(* ---- Type classification ---- *)

let render_type ty =
  try Format.asprintf "%a" Printtyp.type_expr ty with _ -> "<type>"

let manifest_key ctx p =
  let head, comps = flatten_path p [] in
  if Ident.persistent head || Ident.global head then
    match normalize_unit ctx.ix (Ident.name head) comps with
    | TDef id -> Some id
    | TExtern _ | TNone -> None
  else
    match comps with
    | [] -> Some (ctx.unit_name ^ "." ^ Ident.name head)
    | _ -> (
        match ITbl.find_opt ctx.mods head with
        | Some (MLocal prefix) ->
            Some (ctx.unit_name ^ "." ^ prefix ^ String.concat "." comps)
        | _ -> None)

let rec classify ctx depth ty =
  if depth > 8 then TOther (render_type ty)
  else
    match Types.get_desc ty with
    | Types.Tvar _ | Types.Tunivar _ -> TPoly
    | Types.Tpoly (ty, _) -> classify ctx (depth + 1) ty
    | Types.Tconstr (p, args, _) ->
        if
          Path.same p Predef.path_int || Path.same p Predef.path_char
          || Path.same p Predef.path_bool
          || Path.same p Predef.path_unit
        then Imm
        else if Path.same p Predef.path_float then TFloat
        else if Path.same p Predef.path_string || Path.same p Predef.path_bytes
        then TString
        else if args <> [] then TOther (render_type ty)
        else (
          match manifest_key ctx p with
          | Some key -> (
              match Hashtbl.find_opt ctx.ix.manifests key with
              | Some body -> classify ctx (depth + 1) body
              | None -> TOther (render_type ty))
          | None -> TOther (render_type ty))
    | _ -> TOther (render_type ty)

let rec arrow_arg n ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, a, b, _) -> if n = 0 then Some a else arrow_arg (n - 1) b
  | Types.Tpoly (ty, _) -> arrow_arg n ty
  | _ -> None

let classify_op ctx ~op ty =
  (* which arrow argument carries the compared type *)
  let slot = if op = "Hashtbl.seeded_hash" || op = "Hashtbl.hash_param" then 2 else 0 in
  match arrow_arg slot ty with
  | Some arg -> (classify ctx 0 arg, render_type arg)
  | None -> (TPoly, render_type ty)

(* ---- Transitive type mutability (the domain tier's classifier) ----

   Three-valued: [Mut_yes] when the type transitively contains a
   mutable record field / ref / array / bytes / Hashtbl-family
   container, [Mut_atomic] when the only mutability is behind
   [Stdlib.Atomic.t] (or a lock), [Mut_none] otherwise. In-repo types
   are resolved through the [decls] table, which carries implementation
   shapes even for types an .mli exports abstract. *)

let builtin_mut_yes =
  [ "Stdlib.ref"; "Stdlib.Hashtbl.t"; "Stdlib.Queue.t"; "Stdlib.Stack.t";
    "Stdlib.Buffer.t"; "Stdlib.Random.State.t"; "Stdlib.Weak.t";
    "Stdlib.Dynarray.t"; "Stdlib.in_channel"; "Stdlib.out_channel";
    "Stdlib.Format.formatter" ]

let builtin_mut_atomic =
  [ "Stdlib.Mutex.t"; "Stdlib.Condition.t"; "Stdlib.Semaphore.Counting.t";
    "Stdlib.Semaphore.Binary.t";
    (* a DLS key denotes per-domain storage: each domain sees its own
       slot, so even a mutable payload is confined by construction *)
    "Stdlib.Domain.DLS.key" ]

let atomic_t_names = [ "Stdlib.Atomic.t"; "CamlinternalAtomic.t" ]

(* The canonical decl key tells us which unit owns the declaration's
   component types, so same-unit local type references inside them
   resolve against the right stamp namespace. *)
let decl_owner key =
  match String.index_opt key '#' with
  | Some i -> String.sub key 0 i
  | None -> (
      match String.index_opt key '.' with
      | Some i -> String.sub key 0 i
      | None -> key)

let rec find_decl_flat t ~unit_name fuel (head, comps) =
  if fuel <= 0 then None
  else if Ident.persistent head || Ident.global head then
    match normalize_unit t (Ident.name head) comps with
    | TDef id -> Option.map (fun s -> (id, s)) (Hashtbl.find_opt t.decls id)
    | TExtern _ | TNone -> None
  else
    let stamp_key = unit_name ^ "#" ^ Ident.unique_name head in
    match (comps, Hashtbl.find_opt t.decls stamp_key) with
    | [], Some s -> Some (stamp_key, s)
    | _ -> (
        let qkey =
          unit_name ^ "." ^ String.concat "." (Ident.name head :: comps)
        in
        match Hashtbl.find_opt t.decls qkey with
        | Some s -> Some (qkey, s)
        | None -> (
            (* a local [module P = ...] alias head: chase the alias *)
            match
              Hashtbl.find_opt t.mod_aliases
                (unit_name ^ "." ^ Ident.name head)
            with
            | Some p when comps <> [] ->
                let head', comps' = flatten_path p [] in
                find_decl_flat t ~unit_name (fuel - 1) (head', comps' @ comps)
            | _ -> None))

let find_decl t ~unit_name p = find_decl_flat t ~unit_name 8 (flatten_path p [])

let rec type_mut t ~unit_name visited depth ty =
  if depth > 20 then Mut_none
  else
    let recurse owner ty' = type_mut t ~unit_name:owner visited (depth + 1) ty' in
    match Types.get_desc ty with
    | Types.Ttuple tys ->
        List.fold_left
          (fun acc ty' -> mut_join acc (recurse unit_name ty'))
          Mut_none tys
    | Types.Tpoly (ty', _) -> recurse unit_name ty'
    | Types.Tconstr (p, args, _) ->
        if
          Path.same p Predef.path_int || Path.same p Predef.path_char
          || Path.same p Predef.path_bool
          || Path.same p Predef.path_unit
          || Path.same p Predef.path_float
          || Path.same p Predef.path_string
          || Path.same p Predef.path_int32
          || Path.same p Predef.path_int64
          || Path.same p Predef.path_nativeint
          || Path.same p Predef.path_exn
        then Mut_none
        else if
          Path.same p Predef.path_array
          || Path.same p Predef.path_bytes
          || Path.same p Predef.path_floatarray
          || Path.same p Predef.path_lazy_t
        then Mut_yes
        else
          let join_args () =
            List.fold_left
              (fun acc a -> mut_join acc (recurse unit_name a))
              Mut_none args
          in
          let head, comps = flatten_path p [] in
          let extern = String.concat "." (Ident.name head :: comps) in
          if List.mem extern builtin_mut_yes then Mut_yes
          else if List.mem extern atomic_t_names then (
            (* an Atomic cell of an immutable payload is atomic; an
               Atomic holding mutable structure is still shared *)
            match join_args () with Mut_none -> Mut_atomic | m -> m)
          else if List.mem extern builtin_mut_atomic then Mut_atomic
          else if suffix_matches ~pattern:"Table.t" extern then
            (* Hashtbl.Make instances (module Table = Hashtbl.Make _):
               the functor-generated decl lives in no typedtree *)
            Mut_yes
          else (
            match find_decl t ~unit_name p with
            | None -> join_args ()
            | Some (key, shape) ->
                if SS.mem key !visited then Mut_none
                else begin
                  visited := SS.add key !visited;
                  let owner = decl_owner key in
                  let base = if shape.ds_mutable then Mut_yes else Mut_none in
                  let acc =
                    List.fold_left
                      (fun acc sty -> mut_join acc (recurse owner sty))
                      base shape.ds_subtys
                  in
                  let acc =
                    match shape.ds_manifest with
                    | Some m -> mut_join acc (recurse owner m)
                    | None -> acc
                  in
                  mut_join acc (join_args ())
                end)
    | _ -> Mut_none

let type_mutability t ~unit_name ty = type_mut t ~unit_name (ref SS.empty) 0 ty

let shape_of_decl (td : Typedtree.type_declaration) =
  let tt = td.Typedtree.typ_type in
  let of_labels lbls =
    List.fold_left
      (fun (m, tys) (l : Types.label_declaration) ->
        (m || l.Types.ld_mutable = Asttypes.Mutable, l.Types.ld_type :: tys))
      (false, []) lbls
  in
  let direct_mut, subtys =
    match tt.Types.type_kind with
    | Types.Type_record (lbls, _) -> of_labels lbls
    | Types.Type_variant (ctors, _) ->
        List.fold_left
          (fun (m, tys) (c : Types.constructor_declaration) ->
            match c.Types.cd_args with
            | Types.Cstr_tuple args -> (m, args @ tys)
            | Types.Cstr_record lbls ->
                let m', tys' = of_labels lbls in
                (m || m', tys' @ tys))
          (false, []) ctors
    | _ -> (false, [])
  in
  {
    ds_mutable = direct_mut;
    ds_subtys = subtys;
    ds_manifest = tt.Types.type_manifest;
  }

let register_decl ix ~unit_name ~prefix (td : Typedtree.type_declaration) =
  let shape = shape_of_decl td in
  Hashtbl.replace ix.decls
    (unit_name ^ "." ^ prefix ^ Ident.name td.Typedtree.typ_id)
    shape;
  Hashtbl.replace ix.decls
    (unit_name ^ "#" ^ Ident.unique_name td.Typedtree.typ_id)
    shape

(* ---- Event recording ---- *)

let record_event ctx loc kind =
  let pos = loc.Location.loc_start in
  ctx.ix.events <-
    {
      e_def = ctx.cur_def;
      e_file = ctx.file;
      e_line = pos.Lexing.pos_lnum;
      e_col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
      e_kind = kind;
      e_in_raise = ctx.raise_depth > 0;
    }
    :: ctx.ix.events

let record_edge ctx tgt =
  match target_name tgt with
  | None -> ()
  | Some name ->
      (* References inside raise/failwith/invalid_arg arguments count
         for dead-export (the value IS used) but not as call-graph
         edges: an error path terminates per-packet processing, so it
         neither makes its targets hot nor propagates taint. *)
      if ctx.raise_depth = 0 then
        (match Hashtbl.find_opt ctx.ix.edges ctx.cur_def with
        | Some s -> s := SS.add name !s
        | None ->
            Hashtbl.replace ctx.ix.edges ctx.cur_def (ref (SS.singleton name)));
      (match tgt with
      | TDef id -> note_unit_ref ctx.ix ~from_unit:ctx.unit_name ~target:id
      | TExtern _ | TNone -> ())

let note_ident ctx p loc ty =
  let tgt = resolve ctx p in
  record_edge ctx tgt;
  match target_name tgt with
  | None -> ()
  | Some name ->
      (match List.assoc_opt name poly_fun_ops with
      | Some op ->
          let shape, rendered = classify_op ctx ~op ty in
          record_event ctx loc (Poly_fun { op; shape; rendered })
      | None -> ());
      (match List.assoc_opt name eq_ops with
      | Some op ->
          (* an =/<> passed as a function value, not applied: no operand
             expressions to exempt, so treat like bare compare *)
          let shape, rendered = classify_op ctx ~op ty in
          record_event ctx loc (Poly_fun { op; shape; rendered })
      | None -> ());
      if
        List.mem name alloc_smells
        || List.exists
             (fun pre ->
               String.length name >= String.length pre
               && String.sub name 0 (String.length pre) = pre)
             alloc_smell_prefixes
      then record_event ctx loc (Alloc name);
      if
        List.mem name wall_clock_sources
        || List.exists
             (fun pre ->
               String.length name >= String.length pre
               && String.sub name 0 (String.length pre) = pre)
             wall_clock_prefixes
      then record_event ctx loc (Source (Wall_clock, name));
      if ambient_random name then
        record_event ctx loc (Source (Ambient_random, name));
      if any_suffix_matches hashtbl_iter_patterns name then
        record_event ctx loc (Source (Hashtbl_iter, name))

let ref_op_of = function
  | "Stdlib.!" -> Some Rread
  | "Stdlib.:=" -> Some Rwrite
  | "Stdlib.incr" | "Stdlib.decr" -> Some Rrmw
  | _ -> None

(* Record a ref-op event when the operand is a module-level binding of
   an indexed unit (locals resolve to TNone and are skipped — they are
   confined by construction). *)
let record_ref_op ctx loc op (operand : Typedtree.expression) =
  match operand.Typedtree.exp_desc with
  | Typedtree.Texp_ident (p, _, _) -> (
      match resolve ctx p with
      | TDef id -> record_event ctx loc (Ref_op { op; target = id })
      | TExtern _ | TNone -> ())
  | _ -> ()

let constantish (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_constant _ | Typedtree.Texp_construct _
  | Typedtree.Texp_variant _ ->
      true
  | Typedtree.Texp_ident (Path.Pdot _, _, _) -> true
  | _ -> false

(* ---- The typedtree iterator ---- *)

let is_function_literal (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_function _ -> true
  | _ -> false

let mark_functor_arg ctx (me : Typedtree.module_expr) =
  match me.Typedtree.mod_desc with
  | Typedtree.Tmod_ident (p, _) -> (
      let head, comps = flatten_path p [] in
      if Ident.persistent head || Ident.global head then
        let u =
          match comps with
          | m1 :: _ ->
              let h = Ident.name head in
              let cand = if ends_with ~suffix:"__" h then h ^ m1 else h ^ "__" ^ m1 in
              if Hashtbl.mem ctx.ix.known_units cand then cand else h
          | [] -> Ident.name head
        in
        Hashtbl.replace ctx.ix.functor_used u ()
      else
        match ITbl.find_opt ctx.mods head with
        | Some (MAlias p') -> (
            let head', _ = flatten_path p' [] in
            if Ident.persistent head' || Ident.global head' then
              Hashtbl.replace ctx.ix.functor_used (Ident.name head') ())
        | _ -> ())
  | _ -> ()

let iterator ctx =
  let default = Tast_iterator.default_iterator in
  let resolve_apply_edge ctx (fn : Typedtree.expression) =
    match fn.Typedtree.exp_desc with
    | Typedtree.Texp_ident (p, _, _) -> record_edge ctx (resolve ctx p)
    | _ -> ()
  in
  let expr sub (e : Typedtree.expression) =
    match e.Typedtree.exp_desc with
    | Typedtree.Texp_ident (p, _, _) ->
        note_ident ctx p e.Typedtree.exp_loc e.Typedtree.exp_type
    | Typedtree.Texp_apply (fn, args) -> (
        let fn_target =
          match fn.Typedtree.exp_desc with
          | Typedtree.Texp_ident (p, _, _) -> target_name (resolve ctx p)
          | _ -> None
        in
        let walk_args () =
          List.iter (fun (_, a) -> Option.iter (sub.Tast_iterator.expr sub) a) args
        in
        match fn_target with
        | Some name when List.mem_assoc name eq_ops -> (
            (* record the =/<> application once, with operand context,
               and skip the bare-ident event for the operator itself *)
            let op = List.assoc name eq_ops in
            let shape, rendered =
              classify_op ctx ~op fn.Typedtree.exp_type
            in
            let cst =
              match args with
              | [ (_, Some a); (_, Some b) ] -> constantish a || constantish b
              | _ -> false
            in
            record_event ctx fn.Typedtree.exp_loc
              (Poly_eq { op; shape; rendered; constantish = cst });
            resolve_apply_edge ctx fn;
            walk_args ())
        | Some name when List.mem name raise_like ->
            sub.Tast_iterator.expr sub fn;
            ctx.raise_depth <- ctx.raise_depth + 1;
            walk_args ();
            ctx.raise_depth <- ctx.raise_depth - 1
        | Some name when any_suffix_matches schedule_ops name ->
            if
              List.exists
                (fun (_, a) ->
                  match a with Some a -> is_function_literal a | None -> false)
                args
            then record_event ctx e.Typedtree.exp_loc (Schedule_closure name);
            default.Tast_iterator.expr sub e
        | Some name when ref_op_of name <> None ->
            (match (ref_op_of name, args) with
            | Some op, (_, Some operand) :: _ ->
                record_ref_op ctx e.Typedtree.exp_loc op operand
            | _ -> ());
            default.Tast_iterator.expr sub e
        | Some _ | None -> default.Tast_iterator.expr sub e)
    | Typedtree.Texp_field (obj, _, _) ->
        record_ref_op ctx e.Typedtree.exp_loc Rread obj;
        default.Tast_iterator.expr sub e
    | Typedtree.Texp_setfield (obj, _, _, _) ->
        record_ref_op ctx e.Typedtree.exp_loc Rwrite obj;
        default.Tast_iterator.expr sub e
    | Typedtree.Texp_pack me ->
        mark_functor_arg ctx me;
        default.Tast_iterator.expr sub e
    | _ -> default.Tast_iterator.expr sub e
  in
  let module_expr sub (me : Typedtree.module_expr) =
    (match me.Typedtree.mod_desc with
    | Typedtree.Tmod_apply (_, arg, _) -> mark_functor_arg ctx arg
    | _ -> ());
    default.Tast_iterator.module_expr sub me
  in
  { default with Tast_iterator.expr; module_expr }

(* ---- Structure-level walk (defines the def boundaries) ---- *)

let register_def ctx ~prefix ~name ~loc =
  let d_id = ctx.unit_name ^ "." ^ prefix ^ name in
  let pos = loc.Location.loc_start in
  Hashtbl.replace ctx.ix.defs d_id
    { d_id; d_unit = ctx.unit_name; d_file = ctx.file; d_line = pos.Lexing.pos_lnum };
  d_id

let with_def ctx d_id f =
  let saved = ctx.cur_def in
  ctx.cur_def <- d_id;
  f ();
  ctx.cur_def <- saved

(* ---- Module-init allocation scan ----

   Does the right-hand side of a structure-level binding allocate a
   mutable cell when the module initialises? The scan does NOT descend
   into lambdas (those allocate per call, not per module) — so it
   catches exactly the closure-captured pattern
   [let next_id = let c = ref 0 in fun () -> ...] where the binding's
   own type (an arrow) says nothing about the hidden state. *)

let alloc_makers_mut =
  [ "Stdlib.ref"; "Stdlib.Hashtbl.create"; "Stdlib.Queue.create";
    "Stdlib.Stack.create"; "Stdlib.Buffer.create"; "Stdlib.Bytes.create";
    "Stdlib.Bytes.make"; "Stdlib.Array.make"; "Stdlib.Array.init";
    "Stdlib.Array.create_float"; "Stdlib.Array.copy"; "Stdlib.Array.append";
    "Stdlib.Array.of_list"; "Stdlib.Random.State.make"; "Stdlib.Lazy.from_fun" ]

let alloc_makers_atomic = [ "Stdlib.Atomic.make" ]

let init_alloc_scan ctx (e0 : Typedtree.expression) =
  let acc = ref Mut_none in
  let default = Tast_iterator.default_iterator in
  let expr sub (e : Typedtree.expression) =
    match e.Typedtree.exp_desc with
    | Typedtree.Texp_function _ -> ()
    | Typedtree.Texp_apply (fn, _) ->
        (match fn.Typedtree.exp_desc with
        | Typedtree.Texp_ident (p, _, _) -> (
            match target_name (resolve ctx p) with
            | Some name when List.mem name alloc_makers_mut ->
                acc := mut_join !acc Mut_yes
            | Some name when List.mem name alloc_makers_atomic ->
                acc := mut_join !acc Mut_atomic
            | _ -> ())
        | _ -> ());
        default.Tast_iterator.expr sub e
    | Typedtree.Texp_record { fields; _ } ->
        Array.iter
          (fun ((ld : Types.label_description), _) ->
            if ld.Types.lbl_mut = Asttypes.Mutable then
              acc := mut_join !acc Mut_yes)
          fields;
        default.Tast_iterator.expr sub e
    | Typedtree.Texp_array _ ->
        acc := mut_join !acc Mut_yes;
        default.Tast_iterator.expr sub e
    | _ -> default.Tast_iterator.expr sub e
  in
  let it = { default with Tast_iterator.expr } in
  it.Tast_iterator.expr it e0;
  !acc

let register_manifest ctx ~prefix (td : Typedtree.type_declaration) =
  match (td.Typedtree.typ_manifest, td.Typedtree.typ_params) with
  | Some core, [] ->
      Hashtbl.replace ctx.ix.manifests
        (ctx.unit_name ^ "." ^ prefix ^ Ident.name td.Typedtree.typ_id)
        core.Typedtree.ctyp_type
  | _ -> ()

let rec walk_items ctx prefix items it =
  List.iter (fun item -> walk_item ctx prefix item it) items

and walk_item ctx prefix (item : Typedtree.structure_item) it =
  match item.Typedtree.str_desc with
  | Typedtree.Tstr_value (_, vbs) ->
      (* register names first so recursive and later references resolve *)
      let named =
        List.map
          (fun (vb : Typedtree.value_binding) ->
            let ids = Typedtree.pat_bound_idents vb.Typedtree.vb_pat in
            let d_id =
              match ids with
              | id :: _ ->
                  register_def ctx ~prefix ~name:(Ident.name id)
                    ~loc:vb.Typedtree.vb_loc
              | [] -> ctx.unit_name ^ "." ^ prefix ^ "(let)"
            in
            List.iter
              (fun id ->
                let did =
                  register_def ctx ~prefix ~name:(Ident.name id)
                    ~loc:vb.Typedtree.vb_loc
                in
                ITbl.replace ctx.vals id did)
              ids;
            (vb, d_id))
          vbs
      in
      List.iter
        (fun (vb : Typedtree.value_binding) ->
          let alloc = init_alloc_scan ctx vb.Typedtree.vb_expr in
          List.iter
            (fun (id, (sloc : string Location.loc), ty) ->
              ctx.ix.raw_bindings <-
                {
                  rb_id = ctx.unit_name ^ "." ^ prefix ^ Ident.name id;
                  rb_unit = ctx.unit_name;
                  rb_file = ctx.file;
                  rb_line = sloc.Location.loc.Location.loc_start.Lexing.pos_lnum;
                  rb_type = ty;
                  rb_alloc = alloc;
                }
                :: ctx.ix.raw_bindings)
            (Typedtree.pat_bound_idents_full vb.Typedtree.vb_pat))
        vbs;
      List.iter
        (fun ((vb : Typedtree.value_binding), d_id) ->
          with_def ctx d_id (fun () ->
              it.Tast_iterator.expr it vb.Typedtree.vb_expr))
        named
  | Typedtree.Tstr_eval (e, _) ->
      with_def ctx
        (ctx.unit_name ^ "." ^ prefix ^ "(init)")
        (fun () -> it.Tast_iterator.expr it e)
  | Typedtree.Tstr_type (_, tds) ->
      List.iter (register_manifest ctx ~prefix) tds;
      List.iter (register_decl ctx.ix ~unit_name:ctx.unit_name ~prefix) tds
  | Typedtree.Tstr_module mb -> walk_module_binding ctx prefix mb it
  | Typedtree.Tstr_recmodule mbs ->
      List.iter (fun mb -> walk_module_binding ctx prefix mb it) mbs
  | Typedtree.Tstr_include { Typedtree.incl_mod; _ } ->
      mark_functor_arg ctx incl_mod;
      with_def ctx
        (ctx.unit_name ^ "." ^ prefix ^ "(include)")
        (fun () -> it.Tast_iterator.module_expr it incl_mod)
  | _ -> ()

and walk_module_binding ctx prefix (mb : Typedtree.module_binding) it =
  let name =
    match mb.Typedtree.mb_id with Some id -> Some (Ident.name id) | None -> None
  in
  walk_module_expr ctx prefix ~binder:mb.Typedtree.mb_id ~name
    mb.Typedtree.mb_expr it

and walk_module_expr ctx prefix ~binder ~name (me : Typedtree.module_expr) it =
  match me.Typedtree.mod_desc with
  | Typedtree.Tmod_structure s ->
      let sub_prefix =
        match name with Some n -> prefix ^ n ^ "." | None -> prefix
      in
      (match binder with
      | Some id -> ITbl.replace ctx.mods id (MLocal sub_prefix)
      | None -> ());
      walk_items ctx sub_prefix s.Typedtree.str_items it
  | Typedtree.Tmod_ident (p, _) ->
      (match binder with
      | Some id -> ITbl.replace ctx.mods id (MAlias p)
      | None -> ())
  | Typedtree.Tmod_constraint (me', _, _, _) ->
      walk_module_expr ctx prefix ~binder ~name me' it
  | _ ->
      (* functor bodies / applications: walk generically for refs and
         functor-argument marking, attributed to a module pseudo-def *)
      with_def ctx
        (ctx.unit_name ^ "." ^ prefix
        ^ (match name with Some n -> n | None -> "")
        ^ "(module)")
        (fun () -> it.Tast_iterator.module_expr it me)

let record_aliases t ~unit_name (str : Typedtree.structure) =
  let rec alias_path (me : Typedtree.module_expr) =
    match me.Typedtree.mod_desc with
    | Typedtree.Tmod_ident (p, _) -> Some p
    | Typedtree.Tmod_constraint (me', _, _, _) -> alias_path me'
    | _ -> None
  in
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.Typedtree.str_desc with
      | Typedtree.Tstr_module { mb_id = Some id; mb_expr; _ } ->
          Option.iter
            (Hashtbl.replace t.mod_aliases (unit_name ^ "." ^ Ident.name id))
            (alias_path mb_expr)
      | _ -> ())
    str.Typedtree.str_items

let index_implementation t ~unit_name ~file (str : Typedtree.structure) =
  let ctx =
    {
      ix = t;
      unit_name;
      file;
      cur_def = unit_name ^ ".(init)";
      raise_depth = 0;
      vals = ITbl.create 64;
      mods = ITbl.create 16;
    }
  in
  let it = iterator ctx in
  walk_items ctx "" str.Typedtree.str_items it

(* ---- Interfaces: exports + manifests ---- *)

let rec walk_sig_items t ~unit_name ~file ~prefix items =
  List.iter
    (fun (item : Typedtree.signature_item) ->
      match item.Typedtree.sig_desc with
      | Typedtree.Tsig_value vd ->
          let pos = vd.Typedtree.val_loc.Location.loc_start in
          t.exports <-
            {
              x_id = unit_name ^ "." ^ prefix ^ Ident.name vd.Typedtree.val_id;
              x_unit = unit_name;
              x_file = file;
              x_line = pos.Lexing.pos_lnum;
            }
            :: t.exports
      | Typedtree.Tsig_type (_, tds) ->
          List.iter
            (fun (td : Typedtree.type_declaration) ->
              register_decl t ~unit_name ~prefix td;
              match (td.Typedtree.typ_manifest, td.Typedtree.typ_params) with
              | Some core, [] ->
                  Hashtbl.replace t.manifests
                    (unit_name ^ "." ^ prefix ^ Ident.name td.Typedtree.typ_id)
                    core.Typedtree.ctyp_type
              | _ -> ())
            tds
      | Typedtree.Tsig_module md -> (
          match (md.Typedtree.md_id, md.Typedtree.md_type.Typedtree.mty_desc) with
          | Some id, Typedtree.Tmty_signature sg ->
              walk_sig_items t ~unit_name ~file
                ~prefix:(prefix ^ Ident.name id ^ ".")
                sg.Typedtree.sig_items
          | _ -> ())
      | _ -> ())
    items

let index_interface t ~unit_name ~file (sg : Typedtree.signature) =
  walk_sig_items t ~unit_name ~file ~prefix:"" sg.Typedtree.sig_items

(* ---- Loading from .cmt/.cmti trees ---- *)

let repo_file sourcefile =
  match sourcefile with
  | None -> None
  | Some f ->
      let f =
        if String.length f > 2 && String.sub f 0 2 = "./" then
          String.sub f 2 (String.length f - 2)
        else f
      in
      let ok =
        List.exists
          (fun d ->
            String.length f > String.length d
            && String.sub f 0 (String.length d) = d)
          [ "lib/"; "bin/"; "bench/"; "examples/"; "tools/"; "test/" ]
      in
      if ok then Some f else None

let rec collect_cmt_files acc path =
  match Sys.is_directory path with
  | exception Sys_error _ -> acc
  | true ->
      Sys.readdir path |> Array.to_list |> List.sort String.compare
      |> List.fold_left
           (fun acc entry ->
             if entry = ".git" then acc
             else collect_cmt_files acc (Filename.concat path entry))
           acc
  | false ->
      if Filename.check_suffix path ".cmt" || Filename.check_suffix path ".cmti"
      then path :: acc
      else acc

type loaded = {
  l_unit : string;
  l_file : string;
  l_annots : Cmt_format.binary_annots;
}

let load ~dirs =
  let t = create () in
  let files = List.fold_left collect_cmt_files [] dirs in
  let seen = Hashtbl.create 128 in
  let loaded =
    List.filter_map
      (fun path ->
        match Cmt_format.read_cmt path with
        | exception _ -> None
        | cmt -> (
            match repo_file cmt.Cmt_format.cmt_sourcefile with
            | None -> None
            | Some f ->
                let kind =
                  match cmt.Cmt_format.cmt_annots with
                  | Cmt_format.Implementation _ -> "impl"
                  | Cmt_format.Interface _ -> "intf"
                  | _ -> "other"
                in
                let key = (kind, cmt.Cmt_format.cmt_modname) in
                if kind = "other" || Hashtbl.mem seen key then None
                else begin
                  Hashtbl.replace seen key ();
                  Some
                    {
                      l_unit = cmt.Cmt_format.cmt_modname;
                      l_file = f;
                      l_annots = cmt.Cmt_format.cmt_annots;
                    }
                end))
      files
  in
  (* phase 1: all unit names and module aliases must be known before
     any path normalises *)
  List.iter
    (fun l ->
      Hashtbl.replace t.known_units l.l_unit ();
      match l.l_annots with
      | Cmt_format.Implementation str ->
          Hashtbl.replace t.unit_files l.l_unit l.l_file;
          record_aliases t ~unit_name:l.l_unit str
      | _ -> ())
    loaded;
  (* phase 2: interfaces first, so type manifests from .mli files are
     available when implementations classify compare operands *)
  List.iter
    (fun l ->
      match l.l_annots with
      | Cmt_format.Interface sg ->
          index_interface t ~unit_name:l.l_unit ~file:l.l_file sg
      | _ -> ())
    loaded;
  List.iter
    (fun l ->
      match l.l_annots with
      | Cmt_format.Implementation str ->
          index_implementation t ~unit_name:l.l_unit ~file:l.l_file str
      | _ -> ())
    loaded;
  t

(* ---- Classified bindings (the domain tier's inventory input) ----

   Classification runs lazily, here, rather than during the walk: a
   binding's type may reference declarations of units loaded later, so
   the raw [Types.type_expr] is kept and resolved only once every
   unit's decls are in the table. *)

type binding = {
  b_id : string;
  b_unit : string;
  b_file : string;
  b_line : int;
  b_arrow : bool;
  b_type_mut : mutability;
      (** of the binding's type; for arrows, of the final result type *)
  b_alloc : mutability;  (** worst module-init allocation *)
  b_rendered : string;
}

(* collapse the pretty-printer's line breaks so rendered types stay on
   one line in messages *)
let squeeze_ws s =
  let buf = Buffer.create (String.length s) in
  let prev_space = ref false in
  String.iter
    (fun c ->
      let c = match c with '\n' | '\t' | '\r' -> ' ' | c -> c in
      if c = ' ' then begin
        if not !prev_space then Buffer.add_char buf ' ';
        prev_space := true
      end
      else begin
        prev_space := false;
        Buffer.add_char buf c
      end)
    s;
  Buffer.contents buf

let rec is_arrow ty =
  match Types.get_desc ty with
  | Types.Tarrow _ -> true
  | Types.Tpoly (ty', _) -> is_arrow ty'
  | _ -> false

let rec final_result ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, _, r, _) -> final_result r
  | Types.Tpoly (ty', _) -> final_result ty'
  | _ -> ty

let bindings t =
  let seen = Hashtbl.create 256 in
  let out =
    (* raw_bindings is most-recent-first, so the first occurrence of a
       shadowed toplevel name is the binding that survives *)
    List.filter_map
      (fun rb ->
        if Hashtbl.mem seen rb.rb_id then None
        else begin
          Hashtbl.add seen rb.rb_id ();
          let arrow = is_arrow rb.rb_type in
          let mty = if arrow then final_result rb.rb_type else rb.rb_type in
          Some
            {
              b_id = rb.rb_id;
              b_unit = rb.rb_unit;
              b_file = rb.rb_file;
              b_line = rb.rb_line;
              b_arrow = arrow;
              b_type_mut = type_mutability t ~unit_name:rb.rb_unit mty;
              b_alloc = rb.rb_alloc;
              b_rendered = squeeze_ws (render_type rb.rb_type);
            }
        end)
      t.raw_bindings
  in
  List.sort (fun a b -> String.compare a.b_id b.b_id) out

(* ---- In-process typing, for fixtures and tests ---- *)

let typing_ready = ref false

let ensure_typing () =
  if not !typing_ready then begin
    Compmisc.init_path ();
    typing_ready := true
  end

(* The stdlib environment plus every fixture unit typed so far, so a
   later fixture can name an earlier one ([module D = Fix_dead]). *)
let fixture_env t =
  List.fold_left
    (fun env (name, sg) ->
      Env.add_module (Ident.create_persistent name) Types.Mp_present
        (Types.Mty_signature sg) env)
    (Compmisc.initial_env ())
    (List.rev t.fixture_sigs)

let fixture_lexbuf ~file ~source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf file;
  Location.init lexbuf file;
  lexbuf

let add_typed_source t ~unit_name ~file ~source =
  ensure_typing ();
  Hashtbl.replace t.known_units unit_name ();
  Hashtbl.replace t.unit_files unit_name file;
  let env = fixture_env t in
  let parsed = Parse.implementation (fixture_lexbuf ~file ~source) in
  let str, _, _, _, _ = Typemod.type_structure env parsed in
  t.fixture_sigs <- (unit_name, str.Typedtree.str_type) :: t.fixture_sigs;
  record_aliases t ~unit_name str;
  index_implementation t ~unit_name ~file str

let add_typed_interface t ~unit_name ~file ~source =
  ensure_typing ();
  Hashtbl.replace t.known_units unit_name ();
  let env = fixture_env t in
  let parsed = Parse.interface (fixture_lexbuf ~file ~source) in
  let sg = Typemod.type_interface env parsed in
  t.fixture_sigs <- (unit_name, sg.Typedtree.sig_type) :: t.fixture_sigs;
  index_interface t ~unit_name ~file sg
